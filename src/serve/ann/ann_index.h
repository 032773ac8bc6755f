#ifndef HYBRIDGNN_SERVE_ANN_ANN_INDEX_H_
#define HYBRIDGNN_SERVE_ANN_ANN_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/statusor.h"
#include "serve/block_scorer.h"
#include "serve/embedding_store.h"

namespace hybridgnn {

/// Construction parameters for AnnIndex. Small-world quality is governed by
/// `M` (graph degree) and `ef_construction` (beam width during insertion);
/// both trade build time for recall. Construction is fully deterministic:
/// the level of table row i is a pure function of (seed, i), rows are
/// inserted in ascending row order, and the batch-parallel build only
/// parallelizes the read-only searches — link application is serial — so
/// two builds over the same table with the same structure-affecting options
/// produce byte-identical adjacency for ANY thread count (pinned by
/// tests/ann_test.cc).
struct AnnBuildOptions {
  /// Max out-links per node on levels >= 1; level 0 keeps up to 2*M.
  size_t M = 16;
  /// Beam width of the insertion-time layer search.
  size_t ef_construction = 100;
  /// Seeds the per-row level assignment (Rng(seed).Fork(row)).
  uint64_t seed = 0xA55EED;
  /// Rank by cosine instead of raw dot during construction and traversal:
  /// the build-time vector copies are L2-normalized, matching the
  /// recommender's cosine ordering. Set from TopKOptions::cosine.
  bool cosine = false;
  /// Publish-time patch policy: when more than this fraction of the
  /// previous index's rows changed, patching degrades recall too far and a
  /// full rebuild runs instead.
  double max_patch_fraction = 0.2;
  /// Insertion batch of the parallel build: each batch's candidate searches
  /// run concurrently against the graph as frozen at the batch boundary,
  /// then links apply serially in ascending row order. Rows inside one
  /// batch cannot see each other during search, so the batch size is
  /// structure-affecting (and part of operator==); the thread count is not.
  size_t insert_batch = 64;
  /// Worker threads for the batch searches. 0 defers to HYBRIDGNN_THREADS
  /// (DefaultNumThreads), 1 builds serially. Never affects the produced
  /// index bytes — excluded from operator==.
  size_t build_threads = 0;

  /// Equality over the structure-affecting fields only (the patch-vs-
  /// rebuild policy key in topk.cc): build_threads steers wall clock, not
  /// bytes, so two configs differing only there are interchangeable.
  bool operator==(const AnnBuildOptions& o) const {
    return M == o.M && ef_construction == o.ef_construction &&
           seed == o.seed && cosine == o.cosine &&
           max_patch_fraction == o.max_patch_fraction &&
           insert_batch == o.insert_batch;
  }
};

/// Hierarchical Navigable Small World graph over one relation's embedding
/// table — the sublinear candidate generator in front of the exact top-K
/// scorer. The index stores *structure only* (level-linked adjacency in
/// flat arrays, row ids as node handles); vectors stay in the
/// EmbeddingStore, and every distance evaluated during Search goes through
/// the caller's BlockScorer — the same dtype-dispatched ScoreBlock kernels
/// the exact scan uses — so ANN never introduces a second scoring
/// semantics, only a smaller candidate pool.
///
/// Similarity is the (optionally cosine-normalized) dot product; "closer"
/// means a larger score. Dot product is not a metric, but HNSW over inner
/// product is standard practice and the recall gate in bench/micro_ann
/// measures the end-to-end effect against the exact scan.
///
/// Instances are immutable after Build/Patched and shared via
/// shared_ptr<const AnnIndex>; Search allocates its own visited bitmap, so
/// any number of threads can search one index concurrently while a
/// publisher builds its replacement.
class AnnIndex {
 public:
  /// Builds an index over relation `rel` of `store` (any dtype; quantized
  /// tables are dequantized into a transient fp32 copy for construction).
  /// Fails on an empty table.
  static StatusOr<std::shared_ptr<const AnnIndex>> Build(
      const EmbeddingStore& store, RelationId rel,
      const AnnBuildOptions& options);

  /// Copy-on-write incremental patch for LiveEmbeddingStore::Publish: a new
  /// index sharing `prev`'s structure, with rows appended since prev
  /// inserted and `dirty_rows` (ascending table rows whose vectors changed)
  /// re-linked from scratch. Stale *incoming* links to a re-linked row are
  /// left in place — they still point at a live row, only its vector moved,
  /// which costs a little recall rather than correctness; the
  /// max_patch_fraction policy in topk.cc bounds how much of that drift can
  /// accumulate before a full rebuild. `store` is the post-publish table;
  /// its row count must be >= prev.num_rows().
  static StatusOr<std::shared_ptr<const AnnIndex>> Patched(
      const AnnIndex& prev, const EmbeddingStore& store, RelationId rel,
      std::span<const uint32_t> dirty_rows);

  struct SearchStats {
    /// Nodes expanded (popped from the candidate beam) across all levels.
    size_t hops = 0;
  };

  /// Beam search: descends the level hierarchy greedily, then runs an
  /// `ef`-wide best-first search on level 0. Returns up to `ef` table rows
  /// in best-first order (descending similarity, ties by ascending row).
  /// `scorer` must wrap the same relation the index was built over;
  /// `row_norms` (cosine mode) holds the per-row L2 norms the recommender
  /// precomputed — raw kernel scores are divided by them so traversal ranks
  /// in the same space the index was built in (empty span = raw dot).
  void Search(const BlockScorer& scorer, size_t ef,
              std::span<const float> row_norms, std::vector<uint32_t>* out,
              SearchStats* stats) const;

  size_t num_rows() const { return num_rows_; }
  size_t dim() const { return dim_; }
  int max_level() const { return max_level_; }
  uint32_t entry_point() const { return entry_; }
  const AnnBuildOptions& options() const { return options_; }

  /// FNV-1a over every structural array (levels, adjacency, entry point) —
  /// the "same seed, same table => same index bytes" determinism probe.
  uint64_t ContentHash() const;

  /// Approximate resident bytes of the adjacency arrays.
  size_t MemoryBytes() const;

 private:
  AnnIndex() = default;

  struct Builder;  // defined in ann_index.cc

  /// Base of row's (1 + M_)-wide slab for upper level `level` (>= 1).
  uint32_t* UpperSlab(uint32_t row, int level);
  const uint32_t* UpperSlab(uint32_t row, int level) const;

  AnnBuildOptions options_;
  size_t dim_ = 0;
  size_t num_rows_ = 0;
  size_t M_ = 0;    // link cap, levels >= 1
  size_t M0_ = 0;   // link cap, level 0 (2*M)
  int max_level_ = 0;
  uint32_t entry_ = 0;

  /// Per-row top level (0 = present only in the base layer).
  std::vector<uint8_t> levels_;
  /// Level-0 adjacency: row i's links live in links0_[i*M0_ .. ), with
  /// counts0_[i] of them valid.
  std::vector<uint32_t> counts0_;
  std::vector<uint32_t> links0_;
  /// Upper-level adjacency, concatenated slabs: a row with top level L >= 1
  /// owns L slabs of (1 + M_) u32 each starting at
  /// upper_offset_[row] * (1 + M_); the slab for level l (1-based) is slab
  /// l-1, laid out [count, neighbors...]. Rows with level 0 have
  /// upper_offset_ == kNoSlab.
  static constexpr uint32_t kNoSlab = UINT32_MAX;
  std::vector<uint32_t> upper_offset_;
  std::vector<uint32_t> upper_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_SERVE_ANN_ANN_INDEX_H_
