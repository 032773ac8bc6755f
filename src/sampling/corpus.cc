#include "sampling/corpus.h"

#include <utility>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "sampling/walker.h"

namespace hybridgnn {

namespace {

/// Counts a finished corpus into the global registry. The matching
/// `sampling/walk_corpus` stage timer is recorded by the callers' scoped
/// timers around the whole build.
void CountCorpus(const WalkCorpus& corpus) {
  static obs::Counter& walks =
      obs::GlobalRegistry().GetCounter("sampling/walks_generated");
  static obs::Counter& pairs =
      obs::GlobalRegistry().GetCounter("sampling/pairs_generated");
  walks.Add(corpus.walks.size());
  pairs.Add(corpus.pairs.size());
}

}  // namespace

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

namespace {

/// One unit of corpus work: all of a start node's walks under one relation
/// (kInvalidRelation for relation-blind corpora). Units are enumerated in
/// the serial iteration order, so slot-ordered concatenation of their
/// outputs does not depend on how they are scheduled across workers.
struct WalkUnit {
  NodeId start;
  RelationId rel;
  const MetapathScheme* scheme;  // nullptr -> relation/uniform fallback
};

/// Runs `units` through `gen` (unit, rng, corpus-slot). Serial mode threads
/// the caller's Rng through every unit in order — bit-identical to the seed
/// implementation. Parallel mode consumes exactly one draw from the caller's
/// Rng to seed a master generator and forks one independent stream per unit,
/// so the result is reproducible and invariant to the worker count.
template <typename GenFn>
WalkCorpus RunUnits(const std::vector<WalkUnit>& units,
                    const CorpusOptions& options, Rng& rng, const GenFn& gen) {
  WalkCorpus corpus;
  const size_t threads = ResolveNumThreads(options.num_threads);
  if (threads <= 1) {
    for (const WalkUnit& u : units) gen(u, rng, corpus);
    return corpus;
  }
  Rng master(rng.NextUint64());
  std::vector<WalkCorpus> slots(units.size());
  RunParallel(threads, units.size(), [&](size_t i) {
    Rng unit_rng = master.Fork(i);
    gen(units[i], unit_rng, slots[i]);
  });
  size_t total_walks = 0, total_pairs = 0;
  for (const WalkCorpus& s : slots) {
    total_walks += s.walks.size();
    total_pairs += s.pairs.size();
  }
  corpus.walks.reserve(total_walks);
  corpus.pairs.reserve(total_pairs);
  for (WalkCorpus& s : slots) {
    for (auto& w : s.walks) corpus.walks.push_back(std::move(w));
    corpus.pairs.insert(corpus.pairs.end(), s.pairs.begin(), s.pairs.end());
  }
  return corpus;
}

}  // namespace

WalkCorpus BuildMetapathCorpus(const MultiplexHeteroGraph& g,
                               const std::vector<MetapathScheme>& schemes,
                               const CorpusOptions& options, Rng& rng) {
  obs::ScopedTimer stage_timer(obs::Stage("sampling/walk_corpus"));
  std::vector<WalkUnit> units;
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.Degree(v, r) == 0) continue;
      // First matching scheme for (v, r), if any.
      const MetapathScheme* scheme = nullptr;
      for (const auto& s : schemes) {
        if (s.Matches(g, v, r)) {
          scheme = &s;
          break;
        }
      }
      units.push_back(WalkUnit{v, r, scheme});
    }
  }
  WalkCorpus corpus = RunUnits(
      units, options, rng,
      [&](const WalkUnit& u, Rng& unit_rng, WalkCorpus& out) {
        for (size_t w = 0; w < options.num_walks_per_node; ++w) {
          std::vector<NodeId> walk =
              u.scheme != nullptr
                  ? MetapathWalk(g, *u.scheme, u.start, options.walk_length,
                                 unit_rng)
                  : RelationWalk(g, u.rel, u.start, options.walk_length,
                                 unit_rng);
          if (walk.size() < 2) continue;
          HarvestPairs(walk, options.window, u.rel, out.pairs);
          out.walks.push_back(std::move(walk));
        }
      });
  // Direct-edge up-weighting (serial and cheap; order matches the seed
  // implementation's prefix position in the pair list only when serial — the
  // multiset is identical either way).
  std::vector<SkipGramPair> with_edges;
  with_edges.reserve(corpus.pairs.size() +
                     2 * options.direct_edge_copies * g.edges().size());
  for (size_t copy = 0; copy < options.direct_edge_copies; ++copy) {
    for (const auto& e : g.edges()) {
      with_edges.push_back(SkipGramPair{e.src, e.dst, e.rel});
      with_edges.push_back(SkipGramPair{e.dst, e.src, e.rel});
    }
  }
  with_edges.insert(with_edges.end(), corpus.pairs.begin(),
                    corpus.pairs.end());
  corpus.pairs = std::move(with_edges);
  CountCorpus(corpus);
  return corpus;
}

WalkCorpus BuildUniformCorpus(const MultiplexHeteroGraph& g,
                              const CorpusOptions& options, Rng& rng) {
  obs::ScopedTimer stage_timer(obs::Stage("sampling/walk_corpus"));
  std::vector<WalkUnit> units;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.TotalDegree(v) == 0) continue;
    units.push_back(WalkUnit{v, kInvalidRelation, nullptr});
  }
  WalkCorpus corpus = RunUnits(
      units, options, rng,
      [&](const WalkUnit& u, Rng& unit_rng, WalkCorpus& out) {
        for (size_t w = 0; w < options.num_walks_per_node; ++w) {
          std::vector<NodeId> walk =
              UniformWalk(g, u.start, options.walk_length, unit_rng);
          if (walk.size() < 2) continue;
          HarvestPairs(walk, options.window, kInvalidRelation, out.pairs);
          out.walks.push_back(std::move(walk));
        }
      });
  CountCorpus(corpus);
  return corpus;
}

WalkCorpus BuildNode2VecCorpus(const MultiplexHeteroGraph& g,
                               const CorpusOptions& options, double p,
                               double q, Rng& rng) {
  obs::ScopedTimer stage_timer(obs::Stage("sampling/walk_corpus"));
  std::vector<WalkUnit> units;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.TotalDegree(v) == 0) continue;
    units.push_back(WalkUnit{v, kInvalidRelation, nullptr});
  }
  WalkCorpus corpus = RunUnits(
      units, options, rng,
      [&](const WalkUnit& u, Rng& unit_rng, WalkCorpus& out) {
        for (size_t w = 0; w < options.num_walks_per_node; ++w) {
          std::vector<NodeId> walk = Node2VecWalk(
              g, u.start, options.walk_length, p, q, unit_rng);
          if (walk.size() < 2) continue;
          HarvestPairs(walk, options.window, kInvalidRelation, out.pairs);
          out.walks.push_back(std::move(walk));
        }
      });
  CountCorpus(corpus);
  return corpus;
}

}  // namespace hybridgnn
