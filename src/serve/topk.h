#ifndef HYBRIDGNN_SERVE_TOPK_H_
#define HYBRIDGNN_SERVE_TOPK_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"
#include "common/threadpool.h"
#include "graph/graph.h"
#include "serve/ann/ann_index.h"
#include "serve/embedding_store.h"

namespace hybridgnn {

/// Engine-wide retrieval options.
struct TopKOptions {
  /// Worker threads for RecommendBatch when no external pool is supplied.
  /// 0 defers to HYBRIDGNN_THREADS; 1 runs serially. Results are identical
  /// for every thread count — queries land in indexed slots.
  size_t num_threads = 0;
  /// Rank by cosine similarity instead of raw dot product: both sides are
  /// L2-normalized (per-row candidate norms are precomputed at
  /// construction, so the per-query cost is one extra multiply per
  /// candidate).
  bool cosine = false;
  /// Sublinear candidate generation: build an HNSW index per relation at
  /// construction and answer queries by searching it, then re-ranking the
  /// candidate pool through the exact ScoreBlock kernels (DESIGN.md §16).
  /// Scores and filters are always exact — ANN only shrinks the candidate
  /// set — and any query the index cannot serve confidently (unindexed
  /// relation, under-filled pool after filtering) falls back to the exact
  /// scan.
  bool ann = false;
  /// Beam width of the level-0 ANN search; also the floor of the candidate
  /// pool size. Larger = higher recall, slower.
  size_t ef_search = 64;
  /// k-aware over-fetch: the ANN pool holds at least k * over_fetch
  /// candidates, so train-neighbor / type / delta-edge filtering can drop
  /// candidates without starving the top-k.
  size_t over_fetch = 4;
  /// Relations with fewer rows than this are never indexed — the exact
  /// block scan beats index traversal on small tables.
  size_t ann_min_rows = 4096;
  /// HNSW construction parameters (cosine is filled from `cosine` above).
  AnnBuildOptions ann_build;
};

/// One retrieval request: top-`k` nodes for `node` under relationship `rel`
/// (Eq. 10's argmax over sigma(dot(e*_{u,r}, e*_{v,r})), which shares its
/// argsort with the raw dot).
struct TopKQuery {
  NodeId node = 0;
  RelationId rel = 0;
  size_t k = 10;
  /// Restrict candidates to this node type (needs a graph); kInvalidNodeType
  /// means every row of the relation's table is a candidate.
  NodeTypeId candidate_type = kInvalidNodeType;
  /// Drop candidates already linked to `node` under `rel` in the training
  /// graph — the standard "don't recommend what the user already has"
  /// filter. Ignored when the recommender has no graph.
  bool exclude_train_neighbors = true;
};

struct Recommendation {
  NodeId node = 0;
  float score = 0.0f;
};

/// Extra per-relation exclusion adjacency layered on top of the training
/// graph's neighbor filter — the serving-side view of streamed delta edges.
/// The streaming path rebuilds one of these on every embedding-store swap
/// (see stream/live_store.h) so "don't recommend what the user already has"
/// keeps holding for interactions that arrived after the checkpoint froze.
/// Immutable once built; lookups are lock-free and safe from any thread.
class DeltaEdgeFilter {
 public:
  DeltaEdgeFilter() = default;
  explicit DeltaEdgeFilter(size_t num_relations) : extra_(num_relations) {}

  /// Registers an undirected (src, dst) exclusion under `rel`; both
  /// directions become invisible to Recommend. Returns true when the edge
  /// was recorded. A `rel` beyond the filter's relation space cannot be
  /// honored — the edge is counted in num_dropped() and false comes back,
  /// so callers can surface the mismatch instead of silently losing the
  /// exclusion. An edge is new if either direction was absent (the two
  /// directions can disagree after a self-loop or a partial earlier
  /// insert), so counting keys off both inserts.
  bool AddEdge(NodeId src, NodeId dst, RelationId rel);

  /// Sorted extra exclusions of (v, r); empty when none.
  std::span<const NodeId> Excluded(NodeId v, RelationId r) const;

  bool empty() const { return num_edges_ == 0; }
  size_t num_edges() const { return num_edges_; }
  /// Edges rejected by AddEdge because their relation id was out of range.
  size_t num_dropped() const { return num_dropped_; }

 private:
  std::vector<std::unordered_map<NodeId, std::vector<NodeId>>> extra_;
  size_t num_edges_ = 0;
  size_t num_dropped_ = 0;
};

/// Cosine-norm carry-forward across store republishes. Recomputing every
/// row norm on a LiveEmbeddingStore::Publish is O(rows * dim) even when a
/// refresh touched a handful of rows; this hands the previous recommender's
/// norms plus the set of rows that actually changed to the next
/// recommender, which then recomputes only the changed rows. Both spans
/// borrow from the previous Version, which the publisher keeps alive for
/// the duration of construction.
struct NormCarryover {
  /// Per-relation norms of the previous recommender (its row_norms()).
  const std::vector<std::vector<float>>* prev_norms = nullptr;
  /// Per-relation ascending-sorted row indices whose embeddings changed
  /// since prev_norms was computed. Rows beyond a relation's previous norm
  /// count are always recomputed (they are new), so append-only growth
  /// needs no dirty entries. A null pointer means "no rows changed".
  const std::vector<std::vector<uint32_t>>* dirty_rows = nullptr;
  /// Per-relation ANN indexes of the previous recommender (its
  /// ann_indexes()). With ANN enabled, the new recommender reuses an entry
  /// outright when its relation has no dirty rows and no appended rows,
  /// patches it copy-on-write when the dirty fraction is small (see
  /// AnnBuildOptions::max_patch_fraction), and rebuilds otherwise — so a
  /// streaming publish costs O(touched) index work, not O(rows).
  const std::vector<std::shared_ptr<const AnnIndex>>* prev_ann = nullptr;
};

/// Brute-force dot-product top-K over a frozen EmbeddingStore: for each
/// query, scans the relation's table once, keeping the best k in a bounded
/// min-heap (O(rows * dim + rows * log k), no full sort, no per-candidate
/// allocation). Query batches fan out across a thread pool. Stateless apart
/// from precomputed norms, so one instance serves any number of threads.
///
/// int8 stores are scanned in place by the
/// dequant-and-score kernels; queries, cosine norms, and the scattered
/// type-filtered path all go through the same dequantization the kernels
/// apply, so scores are consistent however a row is reached.
///
/// With TopKOptions::ann the scan is replaced by
/// sublinear candidate generation: an HNSW search over-fetches a candidate
/// pool which is re-ranked through the same exact kernels and the same
/// filter/heap logic — ANN narrows the candidate set, it never changes
/// scoring semantics. Queries the index cannot serve (unindexed relation,
/// pool under-filled after filtering) route back to the exact scan.
///
/// Ordering is deterministic: descending score, ties broken by ascending
/// node id — the same rule the offline evaluator uses.
class TopKRecommender {
 public:
  /// `graph` (optional) enables candidate typing and training-neighbor
  /// exclusion; it must outlive the recommender, as must `store`.
  /// `extra_filter` (optional) adds post-checkpoint exclusions (streamed
  /// delta edges) on top of the graph filter; same lifetime contract.
  /// `carryover` (optional, cosine mode only) reuses the previous
  /// recommender's row norms for rows it declares untouched; it only needs
  /// to live through the constructor.
  TopKRecommender(const EmbeddingStore* store,
                  const MultiplexHeteroGraph* graph, TopKOptions options,
                  const DeltaEdgeFilter* extra_filter = nullptr,
                  const NormCarryover* carryover = nullptr);

  /// Answers one query.
  StatusOr<std::vector<Recommendation>> Recommend(const TopKQuery& q) const;

  /// Answers a batch, one result slot per query, parallel across
  /// `options.num_threads` (or `pool` when given — the RecommendService
  /// path, which reuses one pool across micro-batches).
  std::vector<StatusOr<std::vector<Recommendation>>> RecommendBatch(
      std::span<const TopKQuery> queries, ThreadPool* pool = nullptr) const;

  const EmbeddingStore& store() const { return *store_; }

  /// Per-relation, per-row candidate L2 norms (empty unless cosine mode).
  /// Feed these back through NormCarryover when rebuilding against a
  /// republished store.
  const std::vector<std::vector<float>>& row_norms() const {
    return row_norms_;
  }

  /// Per-relation ANN indexes (empty vector unless TopKOptions::ann; a null
  /// entry means that relation fell below ann_min_rows and routes to the
  /// exact scan). Feed these back through NormCarryover::prev_ann when
  /// rebuilding against a republished store.
  const std::vector<std::shared_ptr<const AnnIndex>>& ann_indexes() const {
    return ann_;
  }

  /// True when queries go through ANN candidate generation
  /// (TopKOptions::ann).
  bool ann_enabled() const { return options_.ann; }

 private:
  /// Builds / patches / reuses the per-relation ANN indexes (constructor
  /// tail, only with TopKOptions::ann).
  void BuildAnnIndexes(const NormCarryover* carryover);

  const EmbeddingStore* store_;
  const MultiplexHeteroGraph* graph_;
  TopKOptions options_;
  const DeltaEdgeFilter* extra_filter_;
  /// Per-relation, per-row L2 norms; only filled in cosine mode.
  std::vector<std::vector<float>> row_norms_;
  std::vector<std::shared_ptr<const AnnIndex>> ann_;
};

/// Indirection for serving tiers whose recommender is swapped at runtime
/// (the streaming path): AcquireRecommender() returns the current
/// recommender together with an opaque pin that keeps it (and the tables it
/// scores against) alive until the caller drops the pin. A static
/// deployment returns the same recommender with an empty pin.
/// Implementations must make AcquireRecommender() safe from any thread.
class RecommenderSource {
 public:
  virtual ~RecommenderSource() = default;

  struct Pinned {
    /// Lifetime anchor for `recommender`; may be null for static sources.
    std::shared_ptr<const void> pin;
    const TopKRecommender* recommender = nullptr;
    /// Monotonic identity of the pinned snapshot (a publish sequence for
    /// live sources, 0 for static ones). Two acquires with equal versions
    /// from one source see identical tables and filters — the serving
    /// tier's cache-invalidation key.
    uint64_t version = 0;
  };

  virtual Pinned AcquireRecommender() const = 0;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_SERVE_TOPK_H_
