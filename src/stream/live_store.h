#ifndef HYBRIDGNN_STREAM_LIVE_STORE_H_
#define HYBRIDGNN_STREAM_LIVE_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "graph/types.h"
#include "serve/embedding_store.h"
#include "serve/topk.h"
#include "stream/overlay.h"

namespace hybridgnn {

/// Double-buffered bridge between the incremental refresher (single writer)
/// and the serving path (many readers): the writer mutates a private
/// staging copy of the embedding tables row by row, then Publish() freezes
/// staging into an immutable Version — EmbeddingStore + delta-edge filter +
/// TopKRecommender, rebuilt together so the filter set always matches the
/// swapped tables — and swaps it in as the front snapshot under a
/// pointer-sized critical section.
///
/// Readers Acquire() a shared_ptr snapshot and keep scoring against it for
/// as long as they like; a snapshot retires RCU-style when its last reader
/// drops the reference (shared_ptr refcount is the epoch counter), so
/// serving never blocks on ingest and ingest never waits for readers.
///
/// Thread contract: exactly one writer thread calls MutableRow / EnsureRow /
/// Publish; any number of threads call Acquire / RecommendBatch / version.
///
/// Implements RecommenderSource so a RecommendService constructed on the
/// live store pins one published Version per micro-batch.
class LiveEmbeddingStore : public RecommenderSource {
 public:
  /// One immutable published snapshot.
  struct Version {
    Version(uint64_t sequence, EmbeddingStore store)
        : sequence(sequence), store(std::move(store)) {}

    uint64_t sequence = 0;
    EmbeddingStore store;
    /// Streamed edges at publish time, applied as recommendation
    /// exclusions on top of the base graph's neighbor filter.
    std::unique_ptr<DeltaEdgeFilter> filter;
    std::unique_ptr<TopKRecommender> recommender;
  };

  /// Seeds staging (and the first published Version) from `initial`.
  /// `graph` (optional) is the offline training graph used for candidate
  /// typing / neighbor exclusion; it must outlive the live store.
  static StatusOr<std::unique_ptr<LiveEmbeddingStore>> Create(
      const EmbeddingStore& initial, const MultiplexHeteroGraph* graph,
      TopKOptions options);

  LiveEmbeddingStore(const LiveEmbeddingStore&) = delete;
  LiveEmbeddingStore& operator=(const LiveEmbeddingStore&) = delete;

  // --- writer side (single thread) ---

  /// Mutable staging row of node `v` under relation `r`, or nullptr when
  /// the table has no row for `v`. Changes become visible at Publish().
  float* MutableRow(RelationId r, NodeId v);

  /// Staging row of (v, r) for reading, or nullptr.
  const float* Row(RelationId r, NodeId v) const;

  /// Outcome of EnsureRow: the row index, and whether the call appended it
  /// (vs. the node already having one).
  struct EnsureResult {
    uint32_t row = 0;
    bool appended = false;
  };

  /// Row of (v, r), appending a zero row when absent (how streamed-in new
  /// nodes become servable). `appended` lets callers distinguish a fresh
  /// zero row from a pre-existing (possibly trained) one.
  StatusOr<EnsureResult> EnsureRow(RelationId r, NodeId v);

  /// Freezes staging into a new Version and swaps it in as the front
  /// snapshot. `overlay` (optional) supplies the delta edges for the
  /// exclusion-filter rebuild. Cost is one copy of the staging tables, into
  /// a retired Version's tables when a spare set is waiting; the swap
  /// itself is a pointer exchange, so in-flight readers are never stalled
  /// and keep their acquired snapshot until they drop it.
  ///
  /// In cosine mode the new recommender's row norms are carried forward
  /// from the outgoing snapshot for every row the writer did not touch
  /// since the last publish (MutableRow / EnsureRow track the touched set),
  /// so norm maintenance costs O(touched * dim) instead of O(rows * dim).
  Status Publish(const DynamicGraphOverlay* overlay);

  // --- reader side (any thread) ---

  /// Current front snapshot. The returned pointer (and everything hanging
  /// off it) stays valid until released, regardless of later publishes.
  std::shared_ptr<const Version> Acquire() const;

  /// RecommenderSource: the front snapshot's recommender, pinned by the
  /// snapshot itself.
  Pinned AcquireRecommender() const override;

  /// Convenience: batch retrieval against the current front snapshot (one
  /// consistent version for the whole batch).
  std::vector<StatusOr<std::vector<Recommendation>>> RecommendBatch(
      std::span<const TopKQuery> queries, ThreadPool* pool = nullptr) const;

  /// Sequence number of the front snapshot (starts at 1, +1 per publish).
  uint64_t version() const;

  // --- shape accessors (staging view; writer thread or quiescent) ---
  size_t dim() const { return dim_; }
  size_t num_relations() const { return staging_.size(); }
  size_t num_nodes() const { return num_nodes_; }
  const std::string& relation_name(RelationId r) const {
    return staging_[r].name;
  }
  RelationId FindRelation(const std::string& name) const;
  size_t NumRows(RelationId r) const { return staging_[r].row_to_node.size(); }
  NodeId RowNode(RelationId r, size_t row) const {
    return staging_[r].row_to_node[row];
  }
  uint32_t RowOf(RelationId r, NodeId v) const {
    const auto& idx = staging_[r].node_to_row;
    return v < idx.size() ? idx[v] : EmbeddingStore::kNoRow;
  }

 private:
  struct StagingTable {
    std::string name;
    std::vector<NodeId> row_to_node;
    std::vector<uint32_t> node_to_row;  // node -> row or kNoRow
    std::vector<float> data;            // rows * dim
    /// Rows handed out via MutableRow (or appended) since the last
    /// publish: unsorted, possibly with duplicates; sorted + deduped into
    /// the NormCarryover dirty list at Publish, then cleared.
    std::vector<uint32_t> touched_rows;
  };

  LiveEmbeddingStore() = default;

  std::string model_name_;
  size_t dim_ = 0;
  size_t num_nodes_ = 0;  // id space: grows with EnsureRow on unseen nodes
  const MultiplexHeteroGraph* graph_ = nullptr;
  TopKOptions options_;
  std::vector<StagingTable> staging_;

  /// Tables of retired Versions, waiting for Publish to refill them. A
  /// Version's deleter hands its tables back on whichever thread drops the
  /// last reference; the mutex orders that reader's last reads before the
  /// writer's refill. Held by shared_ptr, since a Version can outlive the
  /// store.
  struct SpareTables {
    std::mutex mu;
    std::vector<Tensor> tables;  // at most one set, in relation order
  };

  uint64_t next_sequence_ = 1;
  mutable std::mutex mu_;  // guards front_ only (pointer copy / swap)
  std::shared_ptr<const Version> front_;
  std::shared_ptr<SpareTables> spares_ = std::make_shared<SpareTables>();
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_STREAM_LIVE_STORE_H_
