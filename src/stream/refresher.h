#ifndef HYBRIDGNN_STREAM_REFRESHER_H_
#define HYBRIDGNN_STREAM_REFRESHER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/statusor.h"
#include "sampling/corpus.h"
#include "stream/delta_log.h"
#include "stream/live_store.h"
#include "stream/overlay.h"

namespace hybridgnn {

/// Knobs for one incremental refresh. Defaults are tuned for freshness over
/// polish: a few short walks per dirty node, a couple of SGD rounds — enough
/// to pull the endpoints of streamed edges together without re-touching the
/// rest of the table. The skip-gram window (2) and the minibatch (256
/// pairs) are fixed.
///
/// The refresh is attraction-only: it draws no negatives. The live table is
/// seeded from a checkpoint of *final* embeddings, so center and context
/// share one table, and tied-weight SGNS repulsion pushes served vectors
/// around the geometry directly (word2vec avoids this with a separate
/// output table); in a bounded few-round refresh it costs more ranking
/// quality on the streamed edges than it buys in contrast. Collapse — the
/// failure negatives exist to prevent — needs epochs this refresh never
/// runs.
struct RefreshOptions {
  /// Dirty-frontier depth: touched nodes plus their <= k_hops-hop
  /// neighborhoods get their walks regenerated. 0 refreshes only the
  /// touched nodes themselves.
  size_t k_hops = 1;
  /// Walk regeneration budget per dirty root (per active relation).
  size_t walks_per_dirty_node = 4;
  /// Nodes per regenerated walk, root included (walk_length - 1 steps).
  size_t walk_length = 6;
  /// Copies of each newly streamed edge injected as direct (src, dst)
  /// skip-gram pairs — the first-order signal that makes a refreshed store
  /// score the new interactions above noise.
  size_t direct_edge_copies = 4;
  /// Epochs over the regenerated pair set.
  size_t sgd_rounds = 2;
  /// Per-pair SGD step size; must be positive and finite (IngestBatch
  /// rejects anything else).
  float learning_rate = 0.05f;
  /// Seeds the walk draws and the init of streamed-in rows.
  uint64_t seed = 1;
};

/// Outcome of one IngestBatch.
struct IngestStats {
  size_t edges_added = 0;
  size_t nodes_added = 0;
  size_t duplicates_ignored = 0;
  size_t dirty_nodes = 0;
  size_t pairs_trained = 0;
  uint64_t published_version = 0;
  double elapsed_ms = 0.0;
};

/// The online bridge's compute stage: applies delta batches to a
/// DynamicGraphOverlay, localizes the damage (dirty frontier = touched
/// nodes + K-hop neighborhoods), regenerates short walks from dirty roots
/// only, replays bounded SGNS updates against the LiveEmbeddingStore's
/// staging tables, and publishes a fresh snapshot. Cost scales with the
/// delta, not the graph.
///
/// Write set: a walk from a dirty root takes walk_length - 1 steps and both
/// endpoints of every pair it yields are updated, so rows up to
/// k_hops + walk_length - 1 hops (over all relations) from a touched node
/// can change. Rows no such walk reaches — in particular every row farther
/// out than that bound — keep their exact bits.
///
/// Single-threaded by contract (one ingest thread owns the overlay, the
/// refresher, and the live store's writer side); serving reads go through
/// the live store's published snapshots and never touch this class.
class IncrementalRefresher {
 public:
  /// `overlay` and `live` must outlive the refresher; the refresher is the
  /// sole writer of both.
  IncrementalRefresher(DynamicGraphOverlay* overlay, LiveEmbeddingStore* live,
                       RefreshOptions options);

  /// Applies `batch` to the overlay, refreshes the dirty region, and
  /// publishes a new store version. A learning rate that is not positive
  /// and finite, or an invalid batch, is rejected before any mutation
  /// (InvalidArgument; overlay and staging unchanged). If training leaves
  /// a written row non-finite, returns FailedPrecondition, bumps
  /// core/nonfinite_loss and does not publish: the front snapshot stays the
  /// last good version, but the overlay already holds the batch and the
  /// staging rows hold the blown-up values. Every later IngestBatch then
  /// returns that same error untouched, so no batch publishes them: a retry
  /// (hybridgnn_serve's `ingest` retries the failed batch) keeps failing
  /// until the refresher and live store are rebuilt from a good snapshot.
  StatusOr<IngestStats> IngestBatch(std::span<const GraphDelta> batch);

  /// The dirty frontier of a touched set: `touched` plus every node within
  /// `k_hops` hops (over all relations, base + delta edges). Sorted,
  /// deduplicated. Exposed for tests and for callers that want to refresh
  /// without applying (e.g. after Compact()).
  std::vector<NodeId> DirtyFrontier(std::span<const NodeId> touched,
                                    size_t k_hops) const;

  /// Re-anchors the refresher after the caller swapped the overlay (the
  /// Compact() dance builds a new graph + overlay and re-points here).
  void Reanchor(DynamicGraphOverlay* overlay) { overlay_ = overlay; }

  const RefreshOptions& options() const { return options_; }

 private:
  /// Regenerates walk pairs from the dirty roots and the new edges.
  std::vector<SkipGramPair> HarvestDirtyPairs(
      std::span<const NodeId> dirty, std::span<const EdgeTriple> new_edges);

  /// Runs `sgd_rounds` of minibatched attraction-only SGNS over `pairs`,
  /// updating staging rows in place. Returns pairs trained over all rounds
  /// (pairs whose endpoints both have rows), or FailedPrecondition when a
  /// row it wrote ends non-finite.
  StatusOr<size_t> TrainPairs(std::vector<SkipGramPair>& pairs);

  /// Rows freshly appended by EnsureRow get a small deterministic random
  /// init so their context gradients are non-degenerate; pre-existing rows
  /// (trained or deliberately zeroed) are never touched.
  void InitFreshRow(RelationId r, NodeId v);

  DynamicGraphOverlay* overlay_;
  LiveEmbeddingStore* live_;
  RefreshOptions options_;
  Rng rng_;
  /// OK until a batch leaves a non-finite row; then that batch's error.
  Status poisoned_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_STREAM_REFRESHER_H_
