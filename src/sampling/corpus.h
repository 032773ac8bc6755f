#ifndef HYBRIDGNN_SAMPLING_CORPUS_H_
#define HYBRIDGNN_SAMPLING_CORPUS_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace hybridgnn {

/// A (center, context) training pair harvested from a walk window, tagged
/// with the relation of the edge that produced it (kInvalidRelation for
/// relation-blind walk pairs).
struct SkipGramPair {
  NodeId center;
  NodeId context;
  RelationId rel;
};

/// Walk settings of a skip-gram pair stream, mirroring the paper's corpus
/// (20 walks of length 10, window 5). A "pass" is what a materialized
/// corpus held: `num_walks_per_node` walks from every non-isolated node.
struct CorpusOptions {
  size_t num_walks_per_node = 20;
  size_t walk_length = 10;
  size_t window = 5;
};

/// Skip-gram pairs drawn on demand from random walks, in place of a
/// materialized corpus. A walk starts at a uniformly random non-isolated
/// node and its window pairs are handed out in HarvestPairs order; with
/// `edge_copies` copies of each edge (both directions) mixed in, each pair
/// is instead a uniformly random direction of a uniformly random edge with
/// probability edge_share(), the share those copies held in a materialized
/// corpus. In this undirected graph a uniform walk from a non-isolated node
/// never ends early, so pairs_per_pass() is a pass's exact mean length and
/// the share is exact; for other walks both assume full-length walks. With
/// no walk pairs (window or walk length 0) the share is 1 and the stream
/// holds the edge pairs only.
class PairStream {
 public:
  /// Relation-blind uniform walks plus `edge_copies` copies of each edge.
  /// Walk windows mix 1-3 hop proximity; link prediction is a first-order
  /// task, so SGNS pretraining up-weights the direct edges. DeepWalk is a
  /// pure walk model and mixes in none.
  static PairStream Uniform(const MultiplexHeteroGraph& g,
                            const CorpusOptions& options, size_t edge_copies);
  /// Relation-blind node2vec walks with return/in-out parameters p, q, and
  /// no edge pairs.
  static PairStream Node2Vec(const MultiplexHeteroGraph& g,
                             const CorpusOptions& options, double p,
                             double q);

  size_t walks_per_pass() const { return walks_per_pass_; }
  size_t pairs_per_pass() const { return pairs_per_pass_; }
  double edge_share() const { return edge_share_; }

  /// Draws from one stream `rng` until `max_pairs` pairs are out, or until
  /// `max_walks` walks were drawn and their pairs are out. An edge-only
  /// stream draws no walk and ends at `max_pairs`. Pairs and walks
  /// drawn go to the `sampling/pairs_generated` and
  /// `sampling/walks_generated` counters when the reader is destroyed.
  class Reader {
   public:
    Reader(const PairStream& stream, size_t max_pairs, size_t max_walks,
           Rng& rng)
        : stream_(stream), max_pairs_(max_pairs), max_walks_(max_walks),
          rng_(rng) {}
    ~Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// The next pair, or false when the budget is spent.
    bool Next(SkipGramPair* pair);

   private:
    const PairStream& stream_;
    const size_t max_pairs_, max_walks_;
    Rng& rng_;
    size_t pairs_ = 0, walks_ = 0;
    std::vector<SkipGramPair> walk_pairs_;  // the current walk's window
    size_t next_ = 0;                       // first pair not handed out
  };

 private:
  /// One walk from `start`, `start` included.
  using WalkFn = std::function<std::vector<NodeId>(NodeId start, Rng& rng)>;

  PairStream(const MultiplexHeteroGraph& g, const CorpusOptions& options,
             size_t edge_copies, WalkFn walk);

  const MultiplexHeteroGraph* g_;
  size_t window_;
  WalkFn walk_;
  std::vector<NodeId> starts_;  // non-isolated nodes
  size_t walks_per_pass_ = 0, pairs_per_pass_ = 0;
  double edge_share_ = 0.0;
};

/// Appends the windowed pairs of `walk` to `out`.
void HarvestPairs(const std::vector<NodeId>& walk, size_t window,
                  RelationId rel, std::vector<SkipGramPair>& out);

}  // namespace hybridgnn

#endif  // HYBRIDGNN_SAMPLING_CORPUS_H_
