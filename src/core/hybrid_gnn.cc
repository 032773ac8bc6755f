#include "core/hybrid_gnn.h"

#include <algorithm>
#include <cctype>
#include <string>

#include "common/logging.h"
#include "nn/sparse.h"
#include "obs/metrics.h"
#include "sampling/exploration.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/walker.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {

HybridGnn::HybridGnn(const HybridGnnConfig& config,
                     std::vector<MetapathScheme> schemes)
    : config_(config), schemes_(std::move(schemes)) {}

ag::Var HybridGnn::AggregateLevels(const MinibatchFrontier& f,
                                   const MeanAggregator& agg) const {
  // One fused gather of the whole frontier's edge embeddings, then one
  // segment reduction to per-level means. The frontier orders segments
  // deepest level first (the BuildLevelFrontier contract), so means row 0
  // is the farthest level and the fold below walks toward the node itself.
  ag::Var means = SegmentMean(GatherRowsSegmented(edge_init_->table(), f),
                              f);  // [levels, edge_dim]
  const size_t num_levels = f.num_segments();
  // Eq. 3 recursion: fold from the farthest level toward the node itself.
  ag::Var rep = num_levels == 1 ? means : ag::SliceRows(means, 0, 1);
  for (size_t i = 1; i < num_levels; ++i) {
    rep = agg.Forward(MinibatchFrontier::IdentityRow(),
                      ag::SliceRows(means, i, 1), rep);
  }
  return rep;  // [1, edge_dim]
}

ag::Var HybridGnn::FlowStack(const std::vector<FlowSketch>& flows,
                             NodeId v) const {
  // Scratch frontier rebuilt per flow; the sparse ops copy what they keep.
  static thread_local MinibatchFrontier frontier;
  std::vector<ag::Var> rows;
  rows.reserve(flows.size());
  for (const FlowSketch& f : flows) {
    BuildLevelFrontier(f.levels, &frontier);
    rows.push_back(AggregateLevels(frontier, *f.agg));
  }
  if (rows.empty()) {
    // No matching scheme and exploration disabled: fall back to the node's
    // own initial edge embedding so every (v, r) still has a representation.
    rows.push_back(edge_init_->ForwardNodes({v}));
  }
  return rows.size() == 1 ? rows[0] : ag::ConcatRows(rows);
}

ag::Var HybridGnn::FuseFlows(const ag::Var& stack) const {
  if (config_.use_metapath_attention && stack->value.rows() > 1) {
    return ag::MeanRows(metapath_attn_->Forward(stack));  // Eqs. 6-7
  }
  // Ablation (or single flow): uniform importance.
  return stack->value.rows() == 1 ? stack : ag::MeanRows(stack);
}

void HybridGnn::SampleRelationFlows(const MultiplexHeteroGraph& g, NodeId v,
                                    RelationId r, Rng& rng,
                                    std::vector<FlowSketch>* out) const {
  out->clear();  // reused sketches keep their capacity
  if (config_.use_hybrid_aggregation) {
    for (size_t i = 0; i < schemes_.size(); ++i) {
      if (!schemes_[i].Matches(g, v, r)) continue;
      const size_t agg_idx = config_.per_scheme_aggregators ? i : 0;
      out->push_back(FlowSketch{
          MetapathGuidedNeighbors(g, schemes_[i], v, config_.fanout, rng),
          scheme_aggs_[agg_idx].get()});
    }
  } else {
    // Ablation "w/o hybrid": one relation-blind random-sampling flow.
    out->push_back(FlowSketch{SampleLayers(g, v, 2, config_.fanout, rng),
                              rand_agg_.get()});
  }
  if (config_.use_randomized_exploration) {
    out->push_back(
        FlowSketch{ExplorationNeighbors(g, v, config_.exploration_depth,
                                        config_.fanout, rng),
                   rand_agg_.get()});
  }
}

void HybridGnn::SampleNode(const MultiplexHeteroGraph& g, NodeId v, Rng& rng,
                           NodeSketch* out) const {
  out->v = v;
  out->per_rel.resize(num_relations_);
  for (RelationId r = 0; r < num_relations_; ++r) {
    SampleRelationFlows(g, v, r, rng, &out->per_rel[r]);
  }
}

namespace {

/// Levels BuildLevelFrontier keeps for a flow: up to the deepest non-empty
/// one.
size_t FlowDepth(const std::vector<std::vector<NodeId>>& levels) {
  size_t depth = 0;
  for (size_t k = 0; k < levels.size(); ++k) {
    if (!levels[k].empty()) depth = k + 1;
  }
  HYBRIDGNN_CHECK(depth > 0) << "flow with no sampled level";
  return depth;
}

/// A frontier of `segments` segments of `size` consecutive rows each.
void UniformFrontier(size_t segments, size_t size, MinibatchFrontier* out) {
  out->Clear();
  for (size_t s = 1; s <= segments; ++s) out->indptr.push_back(s * size);
}

}  // namespace

ag::Var HybridGnn::ForwardSketches(std::span<const NodeSketch> sketches) const {
  static obs::LatencyHistogram& gather_stage = obs::Stage("core/gather");
  static obs::LatencyHistogram& reduce_stage =
      obs::Stage("core/segment_reduce");
  static obs::LatencyHistogram& attn_stage = obs::Stage("core/attention");
  const size_t n = sketches.size();
  const size_t num_rel = num_relations_;
  HYBRIDGNN_CHECK(n > 0) << "ForwardSketches of no sketches";
  // Per-thread scratch, reused across calls; every op below copies the
  // index and segment arrays its backward keeps.
  struct FlowRef {
    const FlowSketch* flow;
    size_t group;
    size_t pos;  // row within the group's output
  };
  struct FlowGroup {
    const MeanAggregator* agg;
    size_t depth;
    size_t count;
  };
  static thread_local std::vector<FlowRef> flows;
  static thread_local std::vector<FlowGroup> groups;
  static thread_local MinibatchFrontier frontier;
  static thread_local std::vector<int32_t> idx;
  flows.clear();
  groups.clear();

  // ---- Eq. 3 flows. Every (node, relation, flow) joins the group of its
  // aggregator and depth; a group is one frontier whose segments are
  // level-major (deepest level of every flow first, the node's own level
  // last), so each fold step below is one contiguous row slice.
  for (const NodeSketch& sk : sketches) {
    for (const std::vector<FlowSketch>& rel_flows : sk.per_rel) {
      for (const FlowSketch& f : rel_flows) {
        const size_t depth = FlowDepth(f.levels);
        size_t gi = 0;
        while (gi < groups.size() &&
               (groups[gi].agg != f.agg || groups[gi].depth != depth)) {
          ++gi;
        }
        if (gi == groups.size()) groups.push_back(FlowGroup{f.agg, depth, 0});
        flows.push_back(FlowRef{&f, gi, groups[gi].count++});
      }
    }
  }
  std::vector<ag::Var> group_out;
  std::vector<size_t> group_offset;
  size_t flow_rows = 0;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const FlowGroup& grp = groups[gi];
    frontier.Clear();
    for (size_t t = 0; t < grp.depth; ++t) {
      const size_t level = grp.depth - 1 - t;
      for (const FlowRef& fr : flows) {
        if (fr.group != gi) continue;
        const std::vector<NodeId>& nodes = fr.flow->levels[level];
        HYBRIDGNN_CHECK(!nodes.empty())
            << "empty level " << level << " below the deepest";
        for (NodeId u : nodes) frontier.indices.push_back(u);
        frontier.CloseSegment();
      }
    }
    ag::Var block;
    {
      obs::ScopedTimer gather_timer(gather_stage);
      block = GatherRowsSegmented(edge_init_->table(), frontier);
    }
    ag::Var means;
    {
      obs::ScopedTimer reduce_timer(reduce_stage);
      means = SegmentMean(block, frontier);  // [depth * count, edge_dim]
    }
    const size_t count = grp.count;
    ag::Var rep = grp.depth == 1 ? means : ag::SliceRows(means, 0, count);
    UniformFrontier(count, 1, &frontier);  // identity: one row per flow
    for (size_t t = 1; t < grp.depth; ++t) {
      rep = grp.agg->Forward(frontier, ag::SliceRows(means, t * count, count),
                             rep);
    }
    group_out.push_back(rep);
    group_offset.push_back(flow_rows);
    flow_rows += count;
  }

  // ---- Metapath-level fusion (Eqs. 6-7). u gathers one row per (node,
  // relation) from `sources`: the flow rows themselves (single-flow pairs),
  // the fused rows of each flow count m > 1 (one attention call per m), and
  // the initial edge embedding of pairs with no flow at all.
  std::vector<ag::Var> sources;
  if (!group_out.empty()) {
    sources.push_back(group_out.size() == 1 ? group_out[0]
                                            : ag::ConcatRows(group_out));
  }
  static thread_local std::vector<int32_t> u_src;  // per pair: source row
  static thread_local std::vector<size_t> pair_m, pair_first;
  u_src.assign(n * num_rel, -1);
  pair_m.resize(n * num_rel);
  pair_first.resize(n * num_rel);
  size_t max_m = 0;
  {
    size_t at = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t r = 0; r < num_rel; ++r) {
        const size_t m = sketches[i].per_rel[r].size();
        pair_m[i * num_rel + r] = m;
        pair_first[i * num_rel + r] = at;
        at += m;
        max_m = std::max(max_m, m);
        if (m == 1) {
          const FlowRef& fr = flows[pair_first[i * num_rel + r]];
          u_src[i * num_rel + r] =
              static_cast<int32_t>(group_offset[fr.group] + fr.pos);
        }
      }
    }
  }
  size_t src_rows = flow_rows;
  idx.clear();
  for (size_t q = 0; q < n * num_rel; ++q) {
    if (pair_m[q] != 0) continue;
    u_src[q] = static_cast<int32_t>(src_rows + idx.size());
    idx.push_back(static_cast<int32_t>(sketches[q / num_rel].v));
  }
  if (!idx.empty()) {
    src_rows += idx.size();
    sources.push_back(ag::GatherRows(edge_init_->table(), idx));
  }
  for (size_t m = 2; m <= max_m; ++m) {
    idx.clear();
    size_t pairs = 0;
    for (size_t q = 0; q < n * num_rel; ++q) {
      if (pair_m[q] != m) continue;
      u_src[q] = static_cast<int32_t>(src_rows + pairs++);
      for (size_t j = 0; j < m; ++j) {
        const FlowRef& fr = flows[pair_first[q] + j];
        idx.push_back(static_cast<int32_t>(group_offset[fr.group] + fr.pos));
      }
    }
    if (pairs == 0) continue;
    ag::Var stack = ag::GatherRows(sources[0], idx);  // [pairs * m, edge]
    if (config_.use_metapath_attention) {
      obs::ScopedTimer attn_timer(attn_stage);
      stack = metapath_attn_->Forward(stack, pairs);
    }
    UniformFrontier(pairs, m, &frontier);
    sources.push_back(SegmentMean(stack, frontier));  // [pairs, edge]
    src_rows += pairs;
  }
  ag::Var src = sources.size() == 1 ? sources[0] : ag::ConcatRows(sources);
  ag::Var u = ag::GatherRows(src, u_src);  // [n * R, edge], node-major

  // ---- Relationship-level attention (Eqs. 8-9) over each node's R rows;
  // identity under the ablation.
  if (config_.use_relation_attention && num_rel > 1) {
    obs::ScopedTimer attn_timer(attn_stage);
    u = relation_attn_->Forward(u, n);
  }

  // ---- e*_{v,r} = e_v + e_{v,r} W_r (Eq. 10): the rows regrouped
  // relation-major, then one block product against the stacked W_r.
  if (config_.local_scale != 1.0f) u = ag::Scale(u, config_.local_scale);
  ag::Var w = w_rel_[0];
  if (num_rel > 1) {
    idx.clear();
    for (size_t r = 0; r < num_rel; ++r) {
      for (size_t i = 0; i < n; ++i) {
        idx.push_back(static_cast<int32_t>(i * num_rel + r));
      }
    }
    u = ag::GatherRows(u, idx);
    w = ag::ConcatRows(w_rel_);  // [R * edge, base]
  }
  ag::Var out = ag::BatchedMatMul(u, w, num_rel);  // [R * n, base]
  idx.clear();
  for (size_t r = 0; r < num_rel; ++r) {
    for (const NodeSketch& sk : sketches) {
      idx.push_back(static_cast<int32_t>(sk.v));
    }
  }
  return ag::Add(out, ag::GatherRows(base_->table(), idx));  // [R * n, base]
}

ag::Var HybridGnn::ForwardNodeSketch(const NodeSketch& sk) const {
  std::vector<ag::Var> per_rel;
  per_rel.reserve(num_relations_);
  for (RelationId r = 0; r < num_relations_; ++r) {
    per_rel.push_back(FuseFlows(FlowStack(sk.per_rel[r], sk.v)));
  }
  ag::Var u = per_rel.size() == 1 ? per_rel[0] : ag::ConcatRows(per_rel);
  // Relationship-level attention (Eqs. 8-9); identity under the ablation.
  ag::Var u_hat = u;
  if (config_.use_relation_attention && num_relations_ > 1) {
    u_hat = relation_attn_->Forward(u);
  }
  // e*_{v,r} = e_v + e_{v,r} W_r (Eq. 10).
  if (config_.local_scale != 1.0f) {
    u_hat = ag::Scale(u_hat, config_.local_scale);
  }
  std::vector<ag::Var> rows;
  rows.reserve(num_relations_);
  for (RelationId r = 0; r < num_relations_; ++r) {
    rows.push_back(ag::MatMul(ag::SliceRows(u_hat, r, 1), w_rel_[r]));
  }
  ag::Var local = rows.size() == 1 ? rows[0] : ag::ConcatRows(rows);
  ag::Var base_row = base_->ForwardNodes({sk.v});
  return ag::AddRowBroadcast(local, base_row);  // [R, base_dim]
}

TrainerSpec HybridGnn::Spec() const {
  TrainerSpec spec = TrainerSpec::From(name(), config_);
  spec.cache_seed = config_.seed ^ 0xC0FFEE;
  // The tower samples neighbors stochastically: each cached row averages
  // four samples to reduce inference variance.
  spec.cache_samples = 4;
  return spec;
}

Status HybridGnn::Fit(const MultiplexHeteroGraph& g,
                      const FitOptions& options) {
  HYBRIDGNN_RETURN_IF_ERROR(config_.Validate());
  if (g.num_nodes() == 0) return Status::InvalidArgument("empty graph");
  for (const auto& s : schemes_) HYBRIDGNN_RETURN_IF_ERROR(s.Validate(g));
  graph_ = &g;
  num_relations_ = g.num_relations();
  Rng rng(config_.seed);

  // ---- Build trainable components ----
  const size_t v_count = g.num_nodes();
  base_ = std::make_unique<EmbeddingTable>(v_count, config_.base_dim, rng);
  context_ = std::make_unique<EmbeddingTable>(v_count, config_.base_dim, rng);
  edge_init_ = std::make_unique<EmbeddingTable>(v_count, config_.edge_dim, rng);
  scheme_aggs_.clear();
  const size_t num_aggs =
      config_.per_scheme_aggregators ? schemes_.size() : 1;
  for (size_t i = 0; i < num_aggs; ++i) {
    scheme_aggs_.push_back(
        std::make_unique<MeanAggregator>(config_.edge_dim, rng));
  }
  rand_agg_ = std::make_unique<MeanAggregator>(config_.edge_dim, rng);
  metapath_attn_ = std::make_unique<SelfAttention>(
      config_.edge_dim, config_.hidden_dim, rng, /*identity_values=*/true);
  relation_attn_ = std::make_unique<SelfAttention>(
      config_.edge_dim, config_.hidden_dim, rng, /*identity_values=*/true);
  w_rel_.clear();
  for (RelationId r = 0; r < num_relations_; ++r) {
    // Zero-initialized output projection: e* starts at the base embedding
    // and the aggregation branch phases in as W_r is learned, so untrained
    // flow noise never swamps the node-identity signal.
    w_rel_.push_back(ag::Param(Tensor(config_.edge_dim, config_.base_dim)));
  }

  // ---- Train (Sec. III-E) and cache ----
  TowerParams params(base_->table(), context_->table());
  params.Add(edge_init_->parameters());
  for (const auto& agg : scheme_aggs_) params.Add(agg->parameters());
  params.Add(rand_agg_->parameters());
  // Disabled attention stays at its initial values.
  if (config_.use_metapath_attention) params.Add(metapath_attn_->parameters());
  if (config_.use_relation_attention) params.Add(relation_attn_->parameters());
  params.Add(w_rel_);
  params.output = w_rel_;
  MinibatchTrainer trainer(Spec(), options);
  const Status status = trainer.Fit(g, *this, params, rng, &cache_);
  last_epoch_loss_ = trainer.last_epoch_loss();
  return status;
}

std::vector<double> HybridGnn::MetapathAttentionScores(NodeId v,
                                                       RelationId r) const {
  HYBRIDGNN_CHECK(cache_.filled()) << "Fit() must succeed first";
  Rng rng(config_.seed ^ (0x9E37ULL * (v + 1)) ^ r);
  std::vector<FlowSketch> flows;
  SampleRelationFlows(*graph_, v, r, rng, &flows);
  ag::Var stack = FlowStack(flows, v);
  const size_t m = stack->value.rows();
  std::vector<double> scores(m, 1.0 / static_cast<double>(m));
  if (config_.use_metapath_attention && m > 1) {
    Tensor attn = metapath_attn_->AttentionScores(stack->value);  // [m, m]
    for (size_t j = 0; j < m; ++j) {
      double col = 0.0;
      for (size_t i = 0; i < m; ++i) col += attn.At(i, j);
      scores[j] = col / static_cast<double>(m);
    }
  }
  return scores;
}

std::vector<std::string> HybridGnn::FlowLabels(NodeId v, RelationId r) const {
  HYBRIDGNN_CHECK(graph_ != nullptr);
  const MultiplexHeteroGraph& g = *graph_;
  std::vector<std::string> labels;
  if (config_.use_hybrid_aggregation) {
    for (const auto& s : schemes_) {
      if (!s.Matches(g, v, r)) continue;
      std::string label;
      for (size_t i = 0; i < s.node_types().size(); ++i) {
        if (i > 0) label += '-';
        label += static_cast<char>(
            std::toupper(g.node_type_name(s.node_types()[i])[0]));
      }
      labels.push_back(label);
    }
  } else {
    labels.push_back("random-sampling");
  }
  if (config_.use_randomized_exploration) labels.push_back("rand");
  if (labels.empty()) labels.push_back("self");
  return labels;
}

}  // namespace hybridgnn
