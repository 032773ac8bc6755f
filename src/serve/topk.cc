#include "serve/topk.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/timer.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "serve/block_scorer.h"

namespace hybridgnn {

namespace {

/// Bounded min-heap entry ordering: the heap's top is the *worst* kept
/// candidate — lowest score, ties resolved so that the larger node id is
/// evicted first (keeping the evaluator's "smaller id wins ties" rule).
struct WorseOnTop {
  bool operator()(const Recommendation& a, const Recommendation& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.node < b.node;
  }
};

/// Rows scored per block on the dense and typed scans.
constexpr size_t kScoreBlockRows = BlockScorer::kBlockRows;

}  // namespace

bool DeltaEdgeFilter::AddEdge(NodeId src, NodeId dst, RelationId rel) {
  if (rel >= extra_.size()) {
    ++num_dropped_;
    return false;
  }
  auto insert_sorted = [](std::vector<NodeId>& nbrs, NodeId u) {
    auto at = std::lower_bound(nbrs.begin(), nbrs.end(), u);
    if (at != nbrs.end() && *at == u) return false;
    nbrs.insert(at, u);
    return true;
  };
  auto& adj = extra_[rel];
  const bool fresh_fwd = insert_sorted(adj[src], dst);
  const bool fresh_rev = insert_sorted(adj[dst], src);
  if (fresh_fwd || fresh_rev) ++num_edges_;
  return true;
}

std::span<const NodeId> DeltaEdgeFilter::Excluded(NodeId v,
                                                  RelationId r) const {
  if (r >= extra_.size()) return {};
  auto it = extra_[r].find(v);
  if (it == extra_[r].end()) return {};
  return {it->second.data(), it->second.size()};
}

TopKRecommender::TopKRecommender(const EmbeddingStore* store,
                                 const MultiplexHeteroGraph* graph,
                                 TopKOptions options,
                                 const DeltaEdgeFilter* extra_filter,
                                 const NormCarryover* carryover)
    : store_(store),
      graph_(graph),
      options_(options),
      extra_filter_(extra_filter) {
  if (options_.cosine) {
    const size_t dim = store_->dim();
    row_norms_.resize(store_->num_relations());
    std::vector<float> dequant(dim);
    for (RelationId r = 0; r < store_->num_relations(); ++r) {
      const size_t rows = store_->NumRows(r);
      auto& norms = row_norms_[r];
      norms.resize(rows);
      // Carried-forward norms for this relation, when the caller vouches
      // for them. A row is reused iff the previous norms cover it and it is
      // not on the dirty list; everything else (new rows, changed rows,
      // missing carryover) is recomputed.
      const std::vector<float>* prev = nullptr;
      const std::vector<uint32_t>* dirty = nullptr;
      if (carryover != nullptr && carryover->prev_norms != nullptr &&
          r < carryover->prev_norms->size()) {
        prev = &(*carryover->prev_norms)[r];
        if (carryover->dirty_rows != nullptr &&
            r < carryover->dirty_rows->size()) {
          dirty = &(*carryover->dirty_rows)[r];
        }
      }
      const float* data = store_->dtype() == StoreDType::kF32
                              ? store_->Table(r).data()
                              : nullptr;
      size_t dirty_pos = 0;  // cursor into the ascending dirty list
      for (size_t i = 0; i < rows; ++i) {
        bool is_dirty = false;
        if (dirty != nullptr) {
          while (dirty_pos < dirty->size() && (*dirty)[dirty_pos] < i) {
            ++dirty_pos;
          }
          is_dirty = dirty_pos < dirty->size() && (*dirty)[dirty_pos] == i;
        }
        if (prev != nullptr && i < prev->size() && !is_dirty) {
          norms[i] = (*prev)[i];
          continue;
        }
        const float* row;
        if (data != nullptr) {
          row = data + i * dim;
        } else {
          store_->DequantizeRow(r, static_cast<uint32_t>(i), dequant.data());
          row = dequant.data();
        }
        norms[i] =
            static_cast<float>(std::sqrt(kernels::DotDouble(row, row, dim)));
      }
    }
  }
  if (options_.ann) BuildAnnIndexes(carryover);
}

void TopKRecommender::BuildAnnIndexes(const NormCarryover* carryover) {
  static auto& build_ms = obs::Stage("serve/ann_build_ms");
  ann_.resize(store_->num_relations());
  AnnBuildOptions build = options_.ann_build;
  build.cosine = options_.cosine;
  for (RelationId r = 0; r < store_->num_relations(); ++r) {
    const size_t rows = store_->NumRows(r);
    // Small tables route to the exact scan: index traversal only wins once
    // the table dwarfs the candidate pool.
    if (rows < std::max<size_t>(2, options_.ann_min_rows)) continue;
    obs::ScopedTimer timer(build_ms);
    // Publish-time carryover: reuse / patch the previous index when the
    // relation's churn since the last publish is small.
    if (carryover != nullptr && carryover->prev_ann != nullptr &&
        r < carryover->prev_ann->size()) {
      const std::shared_ptr<const AnnIndex>& prev = (*carryover->prev_ann)[r];
      if (prev != nullptr && prev->options() == build &&
          prev->dim() == store_->dim() && prev->num_rows() <= rows) {
        std::span<const uint32_t> dirty;
        if (carryover->dirty_rows != nullptr &&
            r < carryover->dirty_rows->size()) {
          dirty = (*carryover->dirty_rows)[r];
        }
        if (dirty.empty() && prev->num_rows() == rows) {
          ann_[r] = prev;  // untouched relation: share the index outright
          continue;
        }
        // Appended rows in the dirty list are cheap inserts, not re-links;
        // only churn inside the previous index's row space degrades it.
        const auto relinked = static_cast<double>(
            std::lower_bound(dirty.begin(), dirty.end(),
                             static_cast<uint32_t>(prev->num_rows())) -
            dirty.begin());
        const double churn = relinked / static_cast<double>(prev->num_rows());
        if (churn <= build.max_patch_fraction) {
          auto patched = AnnIndex::Patched(*prev, *store_, r, dirty);
          if (patched.ok()) {
            ann_[r] = *std::move(patched);
            continue;
          }
        }
      }
    }
    auto built = AnnIndex::Build(*store_, r, build);
    // Build only fails on malformed options / empty tables, both excluded
    // above; a failure here still degrades to the exact scan rather than
    // taking serving down.
    if (built.ok()) ann_[r] = *std::move(built);
  }
}

StatusOr<std::vector<Recommendation>> TopKRecommender::Recommend(
    const TopKQuery& q) const {
  if (q.rel >= store_->num_relations()) {
    return Status::InvalidArgument("unknown relation id " +
                                   std::to_string(q.rel));
  }
  if (q.k == 0) return Status::InvalidArgument("k must be > 0");
  // A node beyond both the graph's and the store's id space is a malformed
  // query, not a miss: NotFound is reserved for known ids without a table
  // row. Streamed-in nodes live past the offline graph but inside the
  // published store's id space, so they stay servable.
  if (graph_ != nullptr && q.node >= graph_->num_nodes() &&
      q.node >= store_->num_nodes()) {
    return Status::InvalidArgument(
        "node " + std::to_string(q.node) + " is out of range (graph has " +
        std::to_string(graph_->num_nodes()) + " nodes, store covers " +
        std::to_string(store_->num_nodes()) + ")");
  }
  const size_t dim = store_->dim();
  const StoreDType dtype = store_->dtype();
  const uint32_t query_table_row = store_->RowOf(q.node, q.rel);
  if (query_table_row == EmbeddingStore::kNoRow) {
    return Status::NotFound("node " + std::to_string(q.node) +
                            " has no embedding under relation '" +
                            store_->relation_name(q.rel) + "'");
  }
  if (q.candidate_type != kInvalidNodeType) {
    if (graph_ == nullptr) {
      return Status::FailedPrecondition(
          "candidate_type filtering needs a graph-aware recommender");
    }
    if (q.candidate_type >= graph_->num_node_types()) {
      return Status::InvalidArgument("unknown node type id " +
                                     std::to_string(q.candidate_type));
    }
  }
  // The query side always scores as fp32: for quantized stores the row is
  // dequantized once up front (the kernels only quantize the candidate
  // side).
  std::vector<float> query_buf;
  const float* query_row;
  if (dtype == StoreDType::kF32) {
    query_row = store_->Table(q.rel).data() +
                static_cast<size_t>(query_table_row) * dim;
  } else {
    query_buf.resize(dim);
    store_->DequantizeRow(q.rel, query_table_row, query_buf.data());
    query_row = query_buf.data();
  }
  double query_norm = 1.0;
  if (options_.cosine) {
    query_norm = std::sqrt(kernels::DotDouble(query_row, query_row, dim));
    if (query_norm == 0.0) query_norm = 1.0;
  }
  std::span<const NodeId> train_nbrs;
  std::span<const NodeId> extra_excluded;
  if (q.exclude_train_neighbors) {
    if (graph_ != nullptr && q.rel < graph_->num_relations() &&
        q.node < graph_->num_nodes()) {
      train_nbrs = graph_->Neighbors(q.node, q.rel);  // sorted (CSR)
    }
    if (extra_filter_ != nullptr) {
      extra_excluded = extra_filter_->Excluded(q.node, q.rel);  // sorted
    }
  }
  // One dtype-dispatched scorer serves the dense scan, the typed scan, the
  // ANN traversal, and the ANN re-rank.
  BlockScorer scorer(store_, q.rel, query_row);

  // Bounded min-heap over the candidate scan. `heap` is kept as a vector
  // with std::push/pop_heap so the final extraction can sort in place.
  std::vector<Recommendation> heap;
  heap.reserve(q.k + 1);
  const WorseOnTop worse;
  // Filters + heap maintenance for one scored candidate (`raw` is the plain
  // dot product; cosine normalization happens here so every scan path
  // shares it).
  auto consider = [&](NodeId cand, uint32_t row, double raw) {
    if (cand == q.node) return;
    if (!train_nbrs.empty() &&
        std::binary_search(train_nbrs.begin(), train_nbrs.end(), cand)) {
      return;
    }
    if (!extra_excluded.empty() &&
        std::binary_search(extra_excluded.begin(), extra_excluded.end(),
                           cand)) {
      return;
    }
    double s = raw;
    if (options_.cosine) {
      const float cn = row_norms_[q.rel][row];
      s /= query_norm * (cn == 0.0f ? 1.0f : cn);
    }
    const Recommendation rec{cand, static_cast<float>(s)};
    if (heap.size() < q.k) {
      heap.push_back(rec);
      std::push_heap(heap.begin(), heap.end(), worse);
    } else if (worse(rec, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.back() = rec;
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  };

  // --- ANN candidate generation (sublinear path) ---
  if (options_.ann) {
    static auto& searches = obs::GlobalRegistry().GetCounter(
        "serve/ann_searches");
    static auto& fallbacks = obs::GlobalRegistry().GetCounter(
        "serve/ann_fallbacks");
    static auto& hops = obs::GlobalRegistry().GetCounter("serve/ann_hops");
    static auto& candidates = obs::GlobalRegistry().GetCounter(
        "serve/ann_candidates");
    static auto& rerank_rows = obs::GlobalRegistry().GetCounter(
        "serve/ann_rerank_rows");
    const AnnIndex* index =
        q.rel < ann_.size() ? ann_[q.rel].get() : nullptr;
    if (index == nullptr) {
      fallbacks.Add(1);  // unindexed (small) relation: exact scan below
    } else {
      searches.Add(1);
      // k-aware over-fetch: ask for enough pool that the exclusion / type
      // filters can eat candidates without starving the heap.
      const size_t pool_target = std::min(
          index->num_rows(),
          std::max(options_.ef_search, q.k * std::max<size_t>(
                                                 1, options_.over_fetch)));
      std::span<const float> norms;
      if (options_.cosine) norms = row_norms_[q.rel];
      std::vector<uint32_t> pool;
      AnnIndex::SearchStats stats;
      index->Search(scorer, pool_target, norms, &pool, &stats);
      hops.Add(stats.hops);
      candidates.Add(pool.size());
      // Re-rank the pool through the exact kernels in place, then run the
      // same consider() filters the exact scan applies.
      std::vector<double> scores(pool.size());
      scorer.ScoreRows(pool.data(), pool.size(), scores.data());
      for (size_t i = 0; i < pool.size(); ++i) {
        const NodeId cand = store_->RowNode(q.rel, pool[i]);
        if (q.candidate_type != kInvalidNodeType &&
            (cand >= graph_->num_nodes() ||
             graph_->node_type(cand) != q.candidate_type)) {
          continue;
        }
        consider(cand, pool[i], scores[i]);
      }
      rerank_rows.Add(pool.size());
      const size_t reachable =
          std::min(q.k, index->num_rows() > 0 ? index->num_rows() - 1 : 0);
      if (heap.size() >= reachable) {
        std::sort_heap(heap.begin(), heap.end(), worse);
        return heap;
      }
      // Filtering starved the pool (or the graph was unlucky): fall back to
      // the exact scan so ANN never changes what a query can return, only
      // how fast.
      fallbacks.Add(1);
      heap.clear();
    }
  }

  if (q.candidate_type != kInvalidNodeType) {
    // Type-filtered candidates hit scattered table rows; collect a block of
    // their row ids and score those rows in place through the same kernels
    // as the dense scan (bitwise equal per row — see BlockScorer).
    uint32_t rows_buf[kScoreBlockRows];
    NodeId cand_buf[kScoreBlockRows];
    double scores[kScoreBlockRows];
    size_t filled = 0;
    auto flush = [&] {
      scorer.ScoreRows(rows_buf, filled, scores);
      for (size_t i = 0; i < filled; ++i) {
        consider(cand_buf[i], rows_buf[i], scores[i]);
      }
      filled = 0;
    };
    for (NodeId cand : graph_->NodesOfType(q.candidate_type)) {
      const uint32_t row = store_->RowOf(cand, q.rel);
      if (row == EmbeddingStore::kNoRow) continue;
      rows_buf[filled] = row;
      cand_buf[filled] = cand;
      if (++filled == kScoreBlockRows) flush();
    }
    if (filled > 0) flush();
  } else {
    // Dense scan: score contiguous blocks straight off the (64B-aligned,
    // possibly mmapped) table, then filter and push. Excluded rows waste a
    // dot each, but the blocked kernel is far faster than branching per
    // row.
    const size_t rows = store_->NumRows(q.rel);
    double scores[kScoreBlockRows];
    for (size_t base = 0; base < rows; base += kScoreBlockRows) {
      const size_t count = std::min(kScoreBlockRows, rows - base);
      scorer.ScoreRange(base, count, scores);
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = static_cast<uint32_t>(base + i);
        consider(store_->RowNode(q.rel, row), row, scores[i]);
      }
    }
  }

  std::sort_heap(heap.begin(), heap.end(), worse);  // best-first afterwards
  return heap;
}

std::vector<StatusOr<std::vector<Recommendation>>>
TopKRecommender::RecommendBatch(std::span<const TopKQuery> queries,
                                ThreadPool* pool) const {
  std::vector<StatusOr<std::vector<Recommendation>>> results(
      queries.size(),
      StatusOr<std::vector<Recommendation>>(
          Status::Internal("query not processed")));
  auto work = [&](size_t i) { results[i] = Recommend(queries[i]); };
  if (pool != nullptr) {
    RunParallel(pool, queries.size(), work);
  } else {
    RunParallel(ResolveNumThreads(options_.num_threads), queries.size(),
                work);
  }
  return results;
}

}  // namespace hybridgnn
