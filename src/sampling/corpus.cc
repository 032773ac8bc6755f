#include "sampling/corpus.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "sampling/walker.h"

namespace hybridgnn {

void HarvestPairs(const std::vector<NodeId>& walk, size_t window,
                  RelationId rel, std::vector<SkipGramPair>& out) {
  // Reserve for the worst case (full window on both sides of every
  // position), growing geometrically so repeated calls appending to the
  // same output vector do not reallocate per walk.
  const size_t bound = out.size() + walk.size() * 2 * window;
  if (bound > out.capacity()) {
    out.reserve(std::max(bound, out.capacity() + out.capacity() / 2));
  }
  for (size_t i = 0; i < walk.size(); ++i) {
    const size_t lo = i >= window ? i - window : 0;
    const size_t hi = std::min(walk.size() - 1, i + window);
    for (size_t j = lo; j <= hi; ++j) {
      if (j == i) continue;
      out.push_back(SkipGramPair{walk[i], walk[j], rel});
    }
  }
}

PairStream::PairStream(const MultiplexHeteroGraph& g,
                       const CorpusOptions& options, size_t edge_copies,
                       WalkFn walk)
    : g_(&g), window_(options.window), walk_(std::move(walk)) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.TotalDegree(v) > 0) starts_.push_back(v);
  }
  walks_per_pass_ = options.num_walks_per_node * starts_.size();
  // Window pairs of one full-length walk (walk_length steps).
  const size_t n = options.walk_length + 1;
  size_t per_walk = 0;
  for (size_t i = 0; i < n; ++i) {
    per_walk += std::min(i, options.window) +
                std::min(n - 1 - i, options.window);
  }
  const size_t edge_pairs = 2 * edge_copies * g.edges().size();
  pairs_per_pass_ = walks_per_pass_ * per_walk + edge_pairs;
  if (pairs_per_pass_ > 0) {
    edge_share_ = static_cast<double>(edge_pairs) /
                  static_cast<double>(pairs_per_pass_);
  }
}

PairStream PairStream::Uniform(const MultiplexHeteroGraph& g,
                               const CorpusOptions& options,
                               size_t edge_copies) {
  const size_t length = options.walk_length;
  return PairStream(g, options, edge_copies,
                    [&g, length](NodeId start, Rng& rng) {
                      return UniformWalk(g, start, length, rng);
                    });
}

PairStream PairStream::Node2Vec(const MultiplexHeteroGraph& g,
                                const CorpusOptions& options, double p,
                                double q) {
  const size_t length = options.walk_length;
  return PairStream(g, options, /*edge_copies=*/0,
                    [&g, length, p, q](NodeId start, Rng& rng) {
                      return Node2VecWalk(g, start, length, p, q, rng);
                    });
}

PairStream::Reader::~Reader() {
  static obs::Counter& walks =
      obs::GlobalRegistry().GetCounter("sampling/walks_generated");
  static obs::Counter& pairs =
      obs::GlobalRegistry().GetCounter("sampling/pairs_generated");
  walks.Add(walks_);
  pairs.Add(pairs_);
}

bool PairStream::Reader::Next(SkipGramPair* pair) {
  const PairStream& s = stream_;
  const bool walk_done = next_ == walk_pairs_.size();
  // The walk cap ends the stream unless it holds edge pairs only.
  if (pairs_ == max_pairs_ ||
      (walk_done && walks_ == max_walks_ && s.edge_share_ < 1.0)) {
    return false;
  }
  // No coin is drawn when no edges are mixed in.
  if (s.edge_share_ > 0.0 && rng_.UniformDouble() < s.edge_share_) {
    const std::vector<EdgeTriple>& edges = s.g_->edges();
    const uint64_t k = rng_.UniformUint64(2 * edges.size());
    const EdgeTriple& e = edges[k / 2];
    *pair = k % 2 == 0 ? SkipGramPair{e.src, e.dst, e.rel}
                       : SkipGramPair{e.dst, e.src, e.rel};
    ++pairs_;
    return true;
  }
  while (next_ == walk_pairs_.size()) {
    if (walks_ == max_walks_) return false;
    const NodeId start = s.starts_[rng_.UniformUint64(s.starts_.size())];
    walk_pairs_.clear();
    next_ = 0;
    HarvestPairs(s.walk_(start, rng_), s.window_, kInvalidRelation,
                 walk_pairs_);
    ++walks_;
  }
  *pair = walk_pairs_[next_++];
  ++pairs_;
  return true;
}

}  // namespace hybridgnn
