#include "stream/refresher.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "graph/frontier.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "tensor/autograd.h"

namespace hybridgnn {

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
        HarvestPairs(walk, options_.window, r, pairs);
      }
    }
  }
  // Direct first-order pairs for the streamed edges themselves: walks mix
  // 1..window-hop proximity, but the freshness contract is about the new
  // interactions, so they get an explicit up-weight (both directions).
  for (const EdgeTriple& e : new_edges) {
    for (size_t c = 0; c < options_.direct_edge_copies; ++c) {
      pairs.push_back(SkipGramPair{e.src, e.dst, e.rel});
      pairs.push_back(SkipGramPair{e.dst, e.src, e.rel});
    }
  }
  return pairs;
}

size_t IncrementalRefresher::TrainPairs(std::vector<SkipGramPair>& pairs,
                                        std::span<const NodeId> dirty) {
  const size_t dim = live_->dim();
  size_t trained = 0;
  // Group by relation so each minibatch reads/writes one staging table.
  std::sort(pairs.begin(), pairs.end(),
            [](const SkipGramPair& a, const SkipGramPair& b) {
              return a.rel < b.rel;
            });
  std::vector<NodeId> centers, contexts, negatives, neg_pool;
  for (size_t round = 0; round < options_.sgd_rounds; ++round) {
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
      // Negatives come from the dirty set, not the whole table: they take
      // gradient too (symmetric SGNS — frozen negatives make attraction
      // saturate while repulsion does not, which under popularity skew
      // shoves dirty rows out of the very cone their streamed partners
      // occupy), and drawing them from dirty nodes keeps the write set
      // bounded to the refresh region.
      neg_pool.clear();
      for (NodeId v : dirty) {
        if (live_->Row(rel, v) != nullptr) neg_pool.push_back(v);
      }
      const size_t negs_per_pair =
          neg_pool.empty() ? 0 : options_.num_negatives;
      for (size_t batch_begin = group_begin; batch_begin < group_end;
           batch_begin += options_.minibatch) {
        const size_t batch_end =
            std::min(batch_begin + options_.minibatch, group_end);
        centers.clear();
        contexts.clear();
        negatives.clear();
        for (size_t i = batch_begin; i < batch_end; ++i) {
          const SkipGramPair& p = pairs[i];
          if (live_->Row(rel, p.center) == nullptr ||
              live_->Row(rel, p.context) == nullptr) {
            continue;  // endpoint outside this relation's table
          }
          centers.push_back(p.center);
          contexts.push_back(p.context);
          for (size_t k = 0; k < negs_per_pair; ++k) {
            const size_t pick =
                static_cast<size_t>(rng_.UniformUint64(neg_pool.size()));
            negatives.push_back(neg_pool[pick]);
          }
        }
        const size_t m = centers.size();
        if (m == 0) continue;
        const size_t q = m * negs_per_pair;

        // Gather the touched rows into minibatch tensors, differentiate the
        // SGNS objective, and scatter -lr * grad straight back into
        // staging. Centers appear twice (against contexts and against
        // negatives), so their update is the sum of both grads.
        Tensor c_val(m, dim), x_val(m, dim), cr_val(q, dim), n_val(q, dim);
        for (size_t i = 0; i < m; ++i) {
          const float* c_row = live_->Row(rel, centers[i]);
          const float* x_row = live_->Row(rel, contexts[i]);
          std::memcpy(c_val.data() + i * dim, c_row, dim * sizeof(float));
          std::memcpy(x_val.data() + i * dim, x_row, dim * sizeof(float));
          for (size_t k = 0; k < negs_per_pair; ++k) {
            const size_t j = i * negs_per_pair + k;
            const float* n_row = live_->Row(rel, negatives[j]);
            std::memcpy(cr_val.data() + j * dim, c_row, dim * sizeof(float));
            std::memcpy(n_val.data() + j * dim, n_row, dim * sizeof(float));
          }
        }
        {
          ag::Var c = ag::Param(std::move(c_val));
          ag::Var x = ag::Param(std::move(x_val));
          ag::Var cr = q > 0 ? ag::Param(std::move(cr_val)) : ag::Var();
          ag::Var n = q > 0 ? ag::Param(std::move(n_val)) : ag::Var();
          ag::Var loss = ag::SgnsLoss(
              ag::RowwiseDot(c, x),
              q > 0 ? ag::RowwiseDot(cr, n) : ag::Var());
          ag::Backward(loss);
          // SgnsLoss means over its rows, which would shrink the step by the
          // minibatch size; un-normalize so each sample takes a per-sample
          // step and learning_rate means the same thing for every minibatch
          // setting. The negative side is scaled by m (not q): a pair's k
          // negatives share one unit of repulsion, balancing its one unit of
          // attraction.
          const float lr_pos = options_.learning_rate * static_cast<float>(m);
          const float lr_neg = options_.learning_rate * static_cast<float>(m);
          auto scatter = [&](const Tensor& grad, size_t row, float lr,
                             RelationId r, NodeId node) {
            float* dst = live_->MutableRow(r, node);
            const float* g = grad.data() + row * dim;
            for (size_t j2 = 0; j2 < dim; ++j2) dst[j2] -= lr * g[j2];
          };
          for (size_t i = 0; i < m; ++i) {
            scatter(c->grad, i, lr_pos, rel, centers[i]);
            scatter(x->grad, i, lr_pos, rel, contexts[i]);
          }
          for (size_t j = 0; j < q; ++j) {
            scatter(cr->grad, j, lr_neg, rel, centers[j / negs_per_pair]);
            scatter(n->grad, j, lr_neg, rel, negatives[j]);
          }
        }
        trained += m;
      }
      group_begin = group_end;
    }
  }
  return trained;
}

void IncrementalRefresher::SmoothDirtyRows(std::span<const NodeId> dirty) {
  if (options_.smoothing_alpha <= 0.0f) return;
  const size_t dim = live_->dim();
  const float alpha = options_.smoothing_alpha;
  MinibatchFrontier frontier;
  std::vector<float> gathered;
  std::vector<NodeId> rows;  // dirty nodes with a row AND >= 1 embedded nbr
  std::vector<float> means;
  for (RelationId r = 0; r < live_->num_relations(); ++r) {
    frontier.Clear();
    gathered.clear();
    rows.clear();
    for (NodeId v : dirty) {
      if (live_->Row(r, v) == nullptr) continue;
      size_t added = 0;
      overlay_->Neighbors(v, r).ForEach([&](NodeId u) {
        const float* u_row = live_->Row(r, u);
        if (u_row == nullptr) return;
        gathered.insert(gathered.end(), u_row, u_row + dim);
        frontier.indices.push_back(
            static_cast<int32_t>(frontier.indices.size()));
        ++added;
      });
      if (added == 0) continue;  // nothing gathered: no segment to close
      frontier.CloseSegment();
      rows.push_back(v);
    }
    if (rows.empty()) continue;
    means.assign(rows.size() * dim, 0.0f);
    kernels::SegmentMean(gathered.data(), dim, frontier.indptr.data(),
                         rows.size(), means.data());
    for (size_t s = 0; s < rows.size(); ++s) {
      float* dst = live_->MutableRow(r, rows[s]);
      const float* mean = means.data() + s * dim;
      for (size_t j = 0; j < dim; ++j) {
        dst[j] = (1.0f - alpha) * dst[j] + alpha * mean[j];
      }
    }
  }
}

StatusOr<IngestStats> IncrementalRefresher::IngestBatch(
    std::span<const GraphDelta> batch) {
  obs::ScopedTimer timer(obs::Stage("stream/ingest_latency"));
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
  const size_t trained = TrainPairs(pairs, dirty);
  SmoothDirtyRows(dirty);
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
