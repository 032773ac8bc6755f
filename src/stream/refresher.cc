#include "stream/refresher.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {

namespace {

/// Skip-gram window over the regenerated walks.
constexpr size_t kWindow = 2;
/// Pairs per SGNS minibatch.
constexpr size_t kMinibatch = 256;

}  // namespace

IncrementalRefresher::IncrementalRefresher(DynamicGraphOverlay* overlay,
                                           LiveEmbeddingStore* live,
                                           RefreshOptions options)
    : overlay_(overlay),
      live_(live),
      options_(options),
      rng_(options.seed) {}

std::vector<NodeId> IncrementalRefresher::DirtyFrontier(
    std::span<const NodeId> touched, size_t k_hops) const {
  std::vector<NodeId> dirty(touched.begin(), touched.end());
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  std::vector<NodeId> frontier = dirty;
  for (size_t hop = 0; hop < k_hops && !frontier.empty(); ++hop) {
    std::vector<NodeId> next;
    for (NodeId v : frontier) {
      for (RelationId r = 0; r < overlay_->num_relations(); ++r) {
        overlay_->Neighbors(v, r).ForEach([&](NodeId u) {
          if (!std::binary_search(dirty.begin(), dirty.end(), u)) {
            next.push_back(u);
          }
        });
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    // Merge the new hop into the sorted dirty set; `next` only holds nodes
    // absent from `dirty`, so a two-way merge stays duplicate-free.
    std::vector<NodeId> merged;
    merged.reserve(dirty.size() + next.size());
    std::merge(dirty.begin(), dirty.end(), next.begin(), next.end(),
               std::back_inserter(merged));
    dirty = std::move(merged);
    frontier = std::move(next);
  }
  return dirty;
}

void IncrementalRefresher::InitFreshRow(RelationId r, NodeId v) {
  float* row = live_->MutableRow(r, v);
  if (row == nullptr) return;
  const size_t dim = live_->dim();
  const float bound = 0.5f / static_cast<float>(dim);
  for (size_t j = 0; j < dim; ++j) {
    row[j] = rng_.UniformFloat(-bound, bound);
  }
}

std::vector<SkipGramPair> IncrementalRefresher::HarvestDirtyPairs(
    std::span<const NodeId> dirty, std::span<const EdgeTriple> new_edges) {
  std::vector<SkipGramPair> pairs;
  std::vector<NodeId> walk;
  std::vector<RelationId> scratch;
  for (NodeId root : dirty) {
    for (RelationId r : overlay_->ActiveRelations(root, scratch)) {
      for (size_t w = 0; w < options_.walks_per_dirty_node; ++w) {
        walk.clear();
        walk.push_back(root);
        NodeId cur = root;
        for (size_t step = 1; step < options_.walk_length; ++step) {
          const size_t degree = overlay_->Degree(cur, r);
          if (degree == 0) break;
          const auto nbrs = overlay_->Neighbors(cur, r);
          cur = nbrs[static_cast<size_t>(rng_.UniformUint64(degree))];
          walk.push_back(cur);
        }
        HarvestPairs(walk, kWindow, r, pairs);
      }
    }
  }
  // Direct first-order pairs for the streamed edges themselves: walks mix
  // 1..kWindow-hop proximity, but the freshness contract is about the new
  // interactions, so they get an explicit up-weight (both directions).
  for (const EdgeTriple& e : new_edges) {
    for (size_t c = 0; c < options_.direct_edge_copies; ++c) {
      pairs.push_back(SkipGramPair{e.src, e.dst, e.rel});
      pairs.push_back(SkipGramPair{e.dst, e.src, e.rel});
    }
  }
  return pairs;
}

StatusOr<size_t> IncrementalRefresher::TrainPairs(
    std::vector<SkipGramPair>& pairs) {
  if (options_.sgd_rounds == 0) return size_t{0};
  const size_t dim = live_->dim();
  const float lr = options_.learning_rate;
  size_t trained = 0;
  // Group by relation so each minibatch reads/writes one staging table.
  std::sort(pairs.begin(), pairs.end(),
            [](const SkipGramPair& a, const SkipGramPair& b) {
              return a.rel < b.rel;
            });
  std::vector<float*> centers, contexts;  // staging rows of trainable pairs
  std::vector<size_t> batch_ends;         // minibatch ends in centers
  std::vector<float> c_val, x_val;        // a minibatch's rows at its start
  std::vector<uint8_t> seen;              // per table row: already written?
  std::vector<const float*> written;      // distinct rows the step writes
  size_t group_begin = 0;
  while (group_begin < pairs.size()) {
    const RelationId rel = pairs[group_begin].rel;
    size_t group_end = group_begin;
    while (group_end < pairs.size() && pairs[group_end].rel == rel) {
      ++group_end;
    }
    if (rel >= live_->num_relations() || live_->NumRows(rel) == 0) {
      group_begin = group_end;
      continue;
    }
    // Minibatches are fixed windows of the group's pairs; a pair with an
    // endpoint outside this relation's table drops out of its window. No
    // row is appended while training, so the row pointers stay valid
    // across rounds.
    centers.clear();
    contexts.clear();
    batch_ends.clear();
    seen.assign(live_->NumRows(rel), 0);
    written.clear();
    for (size_t batch_begin = group_begin; batch_begin < group_end;
         batch_begin += kMinibatch) {
      const size_t batch_end = std::min(batch_begin + kMinibatch, group_end);
      for (size_t i = batch_begin; i < batch_end; ++i) {
        const SkipGramPair& p = pairs[i];
        const uint32_t c_row = live_->RowOf(rel, p.center);
        const uint32_t x_row = live_->RowOf(rel, p.context);
        if (c_row == EmbeddingStore::kNoRow ||
            x_row == EmbeddingStore::kNoRow) {
          continue;
        }
        centers.push_back(live_->MutableRow(rel, p.center));
        contexts.push_back(live_->MutableRow(rel, p.context));
        if (seen[c_row] == 0) {
          seen[c_row] = 1;
          written.push_back(centers.back());
        }
        if (seen[x_row] == 0) {
          seen[x_row] = 1;
          written.push_back(contexts.back());
        }
      }
      batch_ends.push_back(centers.size());
    }

    // Attraction-only SGNS: the loss of a minibatch of m pairs is
    // -(1/m) sum_i log sigmoid(c_i . x_i), so pair i's coefficient is
    // g_i = -(1/m) / (1 + exp(c_i . x_i)) and its center moves by
    // -(lr m) g_i x_i, its context by -(lr m) g_i c_i. The gradients read
    // the rows as of the batch start, so a node in several pairs takes the
    // sum of its steps. The 1/m and m cancel in exact arithmetic; both stay
    // so the float results are those of the mean-loss step the golden in
    // RefresherTest.DefaultRefreshMatchesGolden pins.
    for (size_t round = 0; round < options_.sgd_rounds; ++round) {
      size_t begin = 0;
      for (size_t end : batch_ends) {
        const size_t m = end - begin;
        if (m == 0) continue;
        c_val.resize(m * dim);
        x_val.resize(m * dim);
        for (size_t i = 0; i < m; ++i) {
          std::memcpy(c_val.data() + i * dim, centers[begin + i],
                      dim * sizeof(float));
          std::memcpy(x_val.data() + i * dim, contexts[begin + i],
                      dim * sizeof(float));
        }
        const float neg_inv_m = -1.0f * (1.0f / static_cast<float>(m));
        const float step = lr * static_cast<float>(m);
        for (size_t i = 0; i < m; ++i) {
          const float* c = c_val.data() + i * dim;
          const float* x = x_val.data() + i * dim;
          const float g =
              neg_inv_m / (1.0f + std::exp(kernels::Dot(c, x, dim)));
          float* c_dst = centers[begin + i];
          for (size_t j = 0; j < dim; ++j) c_dst[j] -= step * (g * x[j]);
          float* x_dst = contexts[begin + i];
          for (size_t j = 0; j < dim; ++j) x_dst[j] -= step * (g * c[j]);
        }
        trained += m;
        begin = end;
      }
    }

    // A non-finite value never turns finite again under this step (NaN
    // propagates; an inf row makes its pair's dot inf or NaN), so checking
    // each written row once, after the last round, finds every blow-up.
    // The rows are scattered through the table and mostly out of cache by
    // now; prefetching a few rows ahead overlaps their misses, which about
    // halves the check (to under 1% of serve_live's ingest latency).
    constexpr size_t kPrefetchAhead = 4;
    for (size_t k = 0; k < written.size(); ++k) {
      if (k + kPrefetchAhead < written.size()) {
        const float* next = written[k + kPrefetchAhead];
        // One prefetch per 64-byte line (16 floats).
        for (size_t j = 0; j < dim; j += 16) __builtin_prefetch(next + j);
      }
      if (!AllFinite(written[k], dim)) {
        obs::GlobalRegistry().GetCounter("core/nonfinite_loss").Add();
        poisoned_ = Status::FailedPrecondition(
            "stream refresh: a trained row of relation " +
            live_->relation_name(rel) + " is not finite (learning rate " +
            std::to_string(lr) + "); rebuild the refresher and live store");
        return poisoned_;
      }
    }
    group_begin = group_end;
  }
  return trained;
}

StatusOr<IngestStats> IncrementalRefresher::IngestBatch(
    std::span<const GraphDelta> batch) {
  obs::ScopedTimer timer(obs::Stage("stream/ingest_latency"));
  // Staging still holds a failed batch's non-finite rows; any Publish from
  // here on would serve them.
  HYBRIDGNN_RETURN_IF_ERROR(poisoned_);
  if (!std::isfinite(options_.learning_rate) ||
      options_.learning_rate <= 0.0f) {
    return Status::InvalidArgument(
        "stream refresh learning rate " +
        std::to_string(options_.learning_rate) +
        " is not a positive finite number");
  }
  HYBRIDGNN_ASSIGN_OR_RETURN(DynamicGraphOverlay::ApplyResult applied,
                             overlay_->Apply(batch));

  // Rows for streamed-in nodes and edge endpoints that the checkpoint never
  // covered, so they become trainable and servable.
  for (const EdgeTriple& e : applied.new_edges) {
    HYBRIDGNN_ASSIGN_OR_RETURN(LiveEmbeddingStore::EnsureResult src_row,
                               live_->EnsureRow(e.rel, e.src));
    HYBRIDGNN_ASSIGN_OR_RETURN(LiveEmbeddingStore::EnsureResult dst_row,
                               live_->EnsureRow(e.rel, e.dst));
    if (src_row.appended) InitFreshRow(e.rel, e.src);
    if (dst_row.appended) InitFreshRow(e.rel, e.dst);
  }

  std::vector<NodeId> dirty = DirtyFrontier(applied.touched, options_.k_hops);
  std::vector<SkipGramPair> pairs =
      HarvestDirtyPairs(dirty, applied.new_edges);
  HYBRIDGNN_ASSIGN_OR_RETURN(const size_t trained, TrainPairs(pairs));
  HYBRIDGNN_RETURN_IF_ERROR(live_->Publish(overlay_));

  IngestStats stats;
  stats.edges_added = applied.edges_added;
  stats.nodes_added = applied.nodes_added;
  stats.duplicates_ignored = applied.duplicates_ignored;
  stats.dirty_nodes = dirty.size();
  stats.pairs_trained = trained;
  stats.published_version = live_->version();
  stats.elapsed_ms = timer.ElapsedMs();

  auto& registry = obs::GlobalRegistry();
  registry.GetGauge("stream/dirty_nodes")
      .Set(static_cast<double>(dirty.size()));
  // Freshness bound of this batch: wall time from first delta applied to
  // the refreshed snapshot being live.
  registry.GetGauge("stream/refresh_lag").Set(stats.elapsed_ms);
  return stats;
}

}  // namespace hybridgnn
