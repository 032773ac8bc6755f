#include "core/hybrid_gnn.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "nn/sparse.h"
#include "obs/metrics.h"
#include "sampling/exploration.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sgns.h"
#include "sampling/walker.h"
#include "tensor/init.h"
#include "tensor/pool.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {

HybridGnn::HybridGnn(const HybridGnnConfig& config,
                     std::vector<MetapathScheme> schemes)
    : config_(config), schemes_(std::move(schemes)) {}

ag::Var HybridGnn::AggregateLevels(const MinibatchFrontier& f,
                                   const MeanAggregator& agg) const {
  // Stage timers on the hot path: references are cached after first use, so
  // past initialization each is two clock reads and relaxed fetch_adds.
  static obs::LatencyHistogram& gather_stage = obs::Stage("core/gather");
  static obs::LatencyHistogram& reduce_stage =
      obs::Stage("core/segment_reduce");
  // One fused gather of the whole frontier's edge embeddings, then one
  // segment reduction to per-level means. The frontier orders segments
  // deepest level first (the BuildLevelFrontier contract), so means row 0
  // is the farthest level and the fold below walks toward the node itself.
  ag::Var block;
  {
    obs::ScopedTimer gather_timer(gather_stage);
    block = GatherRowsSegmented(edge_init_->table(), f);  // [m, edge_dim]
  }
  ag::Var means;
  {
    obs::ScopedTimer reduce_timer(reduce_stage);
    means = SegmentMean(block, f);  // [levels, edge_dim]
  }
  const size_t num_levels = f.num_segments();
  // Eq. 3 recursion: fold from the farthest level toward the node itself.
  ag::Var rep = num_levels == 1 ? means : ag::SliceRows(means, 0, 1);
  for (size_t i = 1; i < num_levels; ++i) {
    rep = agg.Forward(MinibatchFrontier::IdentityRow(),
                      ag::SliceRows(means, i, 1), rep);
  }
  return rep;  // [1, edge_dim]
}

ag::Var HybridGnn::FlowStack(const MultiplexHeteroGraph& g, NodeId v,
                             RelationId r, Rng& rng) const {
  // Scratch frontier rebuilt per flow; the sparse ops copy what they keep.
  static thread_local MinibatchFrontier frontier;
  std::vector<ag::Var> flows;
  if (config_.use_hybrid_aggregation) {
    for (size_t i = 0; i < schemes_.size(); ++i) {
      const MetapathScheme& s = schemes_[i];
      if (!s.IsIntraRelationship() || s.relation() != r ||
          s.source_type() != g.node_type(v)) {
        continue;
      }
      auto levels = MetapathGuidedNeighbors(g, s, v, config_.fanout, rng);
      const size_t agg_idx = config_.per_scheme_aggregators ? i : 0;
      BuildLevelFrontier(levels, &frontier);
      flows.push_back(AggregateLevels(frontier, *scheme_aggs_[agg_idx]));
    }
  } else {
    // Ablation "w/o hybrid": one relation-blind random-sampling flow.
    auto levels = SampleLayers(g, v, 2, config_.fanout, rng);
    BuildLevelFrontier(levels, &frontier);
    flows.push_back(AggregateLevels(frontier, *rand_agg_));
  }
  if (config_.use_randomized_exploration) {
    auto levels =
        ExplorationNeighbors(g, v, config_.exploration_depth, config_.fanout,
                             rng);
    BuildLevelFrontier(levels, &frontier);
    flows.push_back(AggregateLevels(frontier, *rand_agg_));
  }
  if (flows.empty()) {
    // No matching scheme and exploration disabled: fall back to the node's
    // own initial edge embedding so every (v, r) still has a representation.
    flows.push_back(edge_init_->ForwardNodes({v}));
  }
  return flows.size() == 1 ? flows[0] : ag::ConcatRows(flows);
}

ag::Var HybridGnn::FuseFlows(const ag::Var& stack) const {
  static obs::LatencyHistogram& attn_stage = obs::Stage("core/attention");
  obs::ScopedTimer attn_timer(attn_stage);
  if (config_.use_metapath_attention && stack->value.rows() > 1) {
    return ag::MeanRows(metapath_attn_->Forward(stack));  // Eqs. 6-7
  }
  // Ablation (or single flow): uniform importance.
  return stack->value.rows() == 1 ? stack : ag::MeanRows(stack);
}

void HybridGnn::SampleNode(const MultiplexHeteroGraph& g, NodeId v, Rng& rng,
                           NodeSketch* out) const {
  // Mirrors FlowStack's sampling control flow — same sampler calls in the
  // same scheme order — for every relation in turn.
  out->v = v;
  out->per_rel.resize(num_relations_);
  for (RelationId r = 0; r < num_relations_; ++r) {
    std::vector<FlowSketch>& flows = out->per_rel[r];
    flows.clear();  // reused sketches keep their capacity
    if (config_.use_hybrid_aggregation) {
      for (size_t i = 0; i < schemes_.size(); ++i) {
        const MetapathScheme& s = schemes_[i];
        if (!s.IsIntraRelationship() || s.relation() != r ||
            s.source_type() != g.node_type(v)) {
          continue;
        }
        const size_t agg_idx = config_.per_scheme_aggregators ? i : 0;
        flows.push_back(
            FlowSketch{MetapathGuidedNeighbors(g, s, v, config_.fanout, rng),
                       scheme_aggs_[agg_idx].get()});
      }
    } else {
      flows.push_back(FlowSketch{SampleLayers(g, v, 2, config_.fanout, rng),
                                 rand_agg_.get()});
    }
    if (config_.use_randomized_exploration) {
      flows.push_back(
          FlowSketch{ExplorationNeighbors(g, v, config_.exploration_depth,
                                          config_.fanout, rng),
                     rand_agg_.get()});
    }
  }
}

namespace {

/// Sketches per batched inference forward (validation pass, embedding
/// cache chunk): about 12 KB of activations each at base_dim 128 with four
/// relations. Chunks of 2,048 left multi-MB pooled buffers and arena blocks
/// between the heap's per-Fit allocations, and peak RSS on a repeated
/// 8,400-node Fit grew by a third; at 512 it stays below the per-node
/// tower's, and per-chunk op overhead is still negligible.
constexpr size_t kForwardChunk = 512;

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
  // index and segment arrays it keeps into the tape.
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
  static thread_local MinibatchFrontier frontier;
  std::vector<ag::Var> per_rel;
  per_rel.reserve(num_relations_);
  for (RelationId r = 0; r < num_relations_; ++r) {
    std::vector<ag::Var> flows;
    flows.reserve(sk.per_rel[r].size());
    for (const FlowSketch& f : sk.per_rel[r]) {
      BuildLevelFrontier(f.levels, &frontier);
      flows.push_back(AggregateLevels(frontier, *f.agg));
    }
    if (flows.empty()) {
      // No matching scheme and exploration disabled: the node's own initial
      // edge embedding (see FlowStack).
      flows.push_back(edge_init_->ForwardNodes({sk.v}));
    }
    ag::Var stack = flows.size() == 1 ? flows[0] : ag::ConcatRows(flows);
    per_rel.push_back(FuseFlows(stack));
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

Status HybridGnn::Fit(const MultiplexHeteroGraph& g,
                      const FitOptions& options) {
  HYBRIDGNN_RETURN_IF_ERROR(config_.Validate());
  // Reproducible-in-parallel stages (corpus, cache) use `threads`; stages
  // whose parallel schedule is racy (SGNS pretrain, minibatch epochs) drop
  // to serial under options.deterministic.
  const size_t threads = options.threads();
  const size_t train_threads = options.deterministic ? 1 : threads;
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  for (const auto& s : schemes_) {
    HYBRIDGNN_RETURN_IF_ERROR(s.Validate(g));
  }
  graph_ = &g;
  fitted_ = false;  // a Fit that fails below leaves no stale cache in use
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

  const bool freeze_tables =
      config_.pretrain_base && config_.freeze_pretrained;
  Adam optimizer(config_.learning_rate);
  if (!freeze_tables) {
    optimizer.AddParameters(base_->parameters());
    optimizer.AddParameters(context_->parameters());
  }
  optimizer.AddParameters(edge_init_->parameters());
  for (const auto& agg : scheme_aggs_) {
    optimizer.AddParameters(agg->parameters());
  }
  optimizer.AddParameters(rand_agg_->parameters());
  if (config_.use_metapath_attention) {
    optimizer.AddParameters(metapath_attn_->parameters());
  }
  if (config_.use_relation_attention) {
    optimizer.AddParameters(relation_attn_->parameters());
  }
  optimizer.AddParameters(w_rel_);

  // ---- Training corpus (Sec. III-E) ----
  CorpusOptions corpus_opts = config_.corpus;
  corpus_opts.num_threads = threads;
  WalkCorpus corpus = BuildMetapathCorpus(g, schemes_, corpus_opts, rng);
  if (corpus.pairs.empty()) {
    return Status::FailedPrecondition("no skip-gram pairs generated");
  }
  options.Report("corpus", 1, 1);
  NegativeSampler neg_sampler(g);

  if (config_.pretrain_base) {
    // Relation-blind uniform corpus: the base embedding captures global
    // proximity; relation-specific structure is learned on top.
    CorpusOptions pre_corpus = corpus_opts;
    pre_corpus.direct_edge_copies = 2;
    WalkCorpus uniform = BuildUniformCorpus(g, pre_corpus, rng);
    uniform.pairs.reserve(uniform.pairs.size() +
                          2 * pre_corpus.direct_edge_copies *
                              g.edges().size());
    for (size_t copy = 0; copy < pre_corpus.direct_edge_copies; ++copy) {
      for (const auto& e : g.edges()) {
        uniform.pairs.push_back(SkipGramPair{e.src, e.dst, e.rel});
        uniform.pairs.push_back(SkipGramPair{e.dst, e.src, e.rel});
      }
    }
    SgnsOptions pre;
    pre.dim = config_.base_dim;
    pre.negatives = config_.num_negatives;
    pre.num_threads = train_threads;
    SgnsEmbedder pretrainer(v_count, config_.base_dim, rng);
    pretrainer.Train(uniform.pairs, neg_sampler, pre, rng);
    base_->table()->value = pretrainer.embeddings();
    context_->table()->value = pretrainer.contexts();
    options.Report("pretrain", 1, 1);
  }

  // ---- End-to-end training ----
  // The base/context tables already carry the skip-gram solution (Sec.
  // III-E) from pretraining; the aggregation machinery is trained on the
  // relationship-specific link objective: raise sigma(e*_{u,r} . e*_{v,r})
  // for training edges against relationship-aware negatives. An internal
  // validation holdout drives early stopping (paper protocol) and the best
  // epoch's parameters are restored, so fine-tuning can only improve on the
  // pretrained base.
  std::vector<EdgeTriple> train_edges = g.edges();
  rng.Shuffle(train_edges);
  const size_t val_count = std::min<size_t>(
      std::max<size_t>(16, static_cast<size_t>(
                               config_.internal_val_fraction *
                               static_cast<double>(train_edges.size()))),
      train_edges.size() / 2);
  std::vector<EdgeTriple> val_edges(train_edges.begin(),
                                    train_edges.begin() + val_count);
  train_edges.erase(train_edges.begin(), train_edges.begin() + val_count);
  // Fixed negatives for a stable validation signal.
  std::vector<NodeId> val_negs;  // two fixed negatives per val edge
  std::vector<NodeId> val_negs2;
  for (const auto& e : val_edges) {
    val_negs.push_back(neg_sampler.SampleRelationAware(
        e.src, e.dst, e.rel, config_.cross_negative_fraction, rng));
    val_negs2.push_back(neg_sampler.SampleRelationAware(
        e.src, e.dst, e.rel, config_.cross_negative_fraction, rng));
  }

  std::vector<ag::Var> all_params;
  all_params.push_back(base_->table());
  all_params.push_back(context_->table());
  all_params.push_back(edge_init_->table());
  for (const auto& agg : scheme_aggs_) {
    for (const auto& p : agg->parameters()) all_params.push_back(p);
  }
  for (const auto& p : rand_agg_->parameters()) all_params.push_back(p);
  for (const auto& p : metapath_attn_->parameters()) all_params.push_back(p);
  for (const auto& p : relation_attn_->parameters()) all_params.push_back(p);
  for (const auto& p : w_rel_) all_params.push_back(p);

  auto snapshot = [&]() {
    std::vector<Tensor> out;
    out.reserve(all_params.size());
    for (const auto& p : all_params) out.push_back(p->value);
    return out;
  };
  auto restore = [&](const std::vector<Tensor>& snap) {
    for (size_t i = 0; i < all_params.size(); ++i) {
      all_params[i]->value = snap[i];
    }
  };
  std::vector<NodeSketch> val_sketches;
  auto validation_auc = [&]() {
    Rng val_rng(config_.seed ^ 0x7A11);
    double wins = 0.0;
    // Four sketches per edge (src, dst, two negatives), sampled in edge
    // order, then one batched forward per kForwardChunk sketches.
    const size_t edges_per_chunk = kForwardChunk / 4;
    for (size_t lo = 0; lo < val_edges.size(); lo += edges_per_chunk) {
      const size_t hi = std::min(val_edges.size(), lo + edges_per_chunk);
      val_sketches.resize(4 * (hi - lo));
      for (size_t i = lo; i < hi; ++i) {
        const EdgeTriple& e = val_edges[i];
        NodeSketch* sk = &val_sketches[4 * (i - lo)];
        for (NodeId v : {e.src, e.dst, val_negs[i], val_negs2[i]}) {
          SampleNode(g, v, val_rng, sk++);
        }
      }
      // Scoring-only graph, rewound before the next chunk.
      ag::TapeScope tape;
      ag::Var all = ForwardSketches(val_sketches);
      const size_t n = val_sketches.size();
      for (size_t i = lo; i < hi; ++i) {
        const EdgeTriple& e = val_edges[i];
        const size_t at = e.rel * n + 4 * (i - lo);
        const float* u_row = all->value.RowPtr(at);
        const float* v_row = all->value.RowPtr(at + 1);
        const float* x_row = all->value.RowPtr(at + 2);
        const float* x2_row = all->value.RowPtr(at + 3);
        double pos = 0.0, neg = 0.0, neg2 = 0.0;
        for (size_t j = 0; j < config_.base_dim; ++j) {
          pos += static_cast<double>(u_row[j]) * v_row[j];
          neg += static_cast<double>(u_row[j]) * x_row[j];
          neg2 += static_cast<double>(u_row[j]) * x2_row[j];
        }
        for (double ns : {neg, neg2}) {
          if (pos > ns) {
            wins += 1.0;
          } else if (pos == ns) {
            wins += 0.5;
          }
        }
      }
    }
    return wins / (2.0 * static_cast<double>(val_edges.size()));
  };

  std::vector<size_t> order(train_edges.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // One minibatch over edges [start, end) of the shuffled order, built and
  // backpropagated with `brng`. Returns (sum of per-element BCE terms,
  // element count) so shard losses can be reduced exactly.
  auto run_batch = [&](size_t start, size_t end, Rng& brng) {
    // The tape is declared before every Var below so the Vars die first and
    // the arena rewind at scope exit frees the whole batch graph at once.
    ag::TapeScope tape;
    // Phase 1 — sample. All randomness the batch consumes (neighbor
    // sampling at each node's first reference, negative draws in between)
    // is drawn here in exactly the order the node-at-a-time loop drew it,
    // so the batched build is invisible to the RNG stream. Thread-local
    // scratch is reused across batches (capacity survives the clear); a
    // flat vector with linear node lookup beats a hash map here — a batch
    // touches a few hundred nodes and the probe is a scan over ids.
    struct BatchRow {
      int lhs;
      int rhs;
      RelationId rel;
      float label;
    };
    static thread_local std::vector<NodeSketch> sketches;
    static thread_local std::vector<BatchRow> brows;
    static thread_local std::vector<float> labels;
    sketches.clear();
    brows.clear();
    labels.clear();
    auto node_ord = [&](NodeId v) -> int {
      for (size_t i = 0; i < sketches.size(); ++i) {
        if (sketches[i].v == v) return static_cast<int>(i);
      }
      sketches.emplace_back();
      SampleNode(g, v, brng, &sketches.back());
      return static_cast<int>(sketches.size()) - 1;
    };
    for (size_t i = start; i < end; ++i) {
      const EdgeTriple& e = train_edges[order[i]];
      const int src_ord = node_ord(e.src);
      const int dst_ord = node_ord(e.dst);
      brows.push_back(BatchRow{src_ord, dst_ord, e.rel, 1.0f});
      for (size_t n = 0; n < config_.num_negatives; ++n) {
        NodeId x = neg_sampler.SampleRelationAware(
            e.src, e.dst, e.rel, config_.cross_negative_fraction, brng);
        brows.push_back(BatchRow{src_ord, node_ord(x), e.rel, 0.0f});
      }
    }
    for (const BatchRow& row : brows) labels.push_back(row.label);

    // Phase 2 — one batched tower over the batch's distinct nodes; each
    // loss row gathers its two endpoints' relation rows out of it.
    static thread_local std::vector<int32_t> lhs, rhs;
    lhs.clear();
    rhs.clear();
    const size_t n = sketches.size();
    for (const BatchRow& row : brows) {
      lhs.push_back(static_cast<int32_t>(row.rel * n + row.lhs));
      rhs.push_back(static_cast<int32_t>(row.rel * n + row.rhs));
    }
    ag::Var all = ForwardSketches(sketches);
    ag::Var logits =
        ag::RowwiseDot(ag::GatherRows(all, lhs), ag::GatherRows(all, rhs));
    ag::Var loss = ag::BceWithLogits(logits, labels);
    ag::Backward(loss);
    const double batch_loss = loss->value.At(0, 0);
    const size_t elems = labels.size();
    // Drop the loss Var before the TapeScope rewinds.
    loss = nullptr;
    return std::make_pair(batch_loss, elems);
  };

  double best_val = validation_auc();  // epoch 0: the pretrained base
  std::vector<Tensor> best_snapshot = snapshot();
  size_t bad_epochs = 0;
  const size_t edge_batch = std::max<size_t>(16, config_.batch_size / 2);
  std::unique_ptr<ThreadPool> pool;
  if (train_threads > 1) pool = std::make_unique<ThreadPool>(train_threads);
  // Per-worker gradient sinks live across the whole run: slot tensors are
  // zeroed after each reduction instead of destroyed, so steady-state
  // batches reuse them in place.
  std::vector<ag::GradSinkScope::Sink> sinks(train_threads);
  std::vector<double> shard_loss(train_threads, 0.0);
  std::vector<size_t> shard_elems(train_threads, 0);
  static obs::LatencyHistogram& epoch_stage = obs::Stage("core/epoch");
  static obs::Counter& minibatch_counter =
      obs::GlobalRegistry().GetCounter("core/minibatches");
  static obs::Gauge& loss_gauge =
      obs::GlobalRegistry().GetGauge("core/last_epoch_loss");
  static obs::Counter& nonfinite_counter =
      obs::GlobalRegistry().GetCounter("core/nonfinite_loss");
  // Bytes newly fetched from the OS/heap by the last training step (pool
  // misses + arena block growth). Flatlines at zero once pools and tapes
  // are warm; the arena_test reuse case asserts exactly that.
  static obs::Gauge& step_alloc_gauge =
      obs::GlobalRegistry().GetGauge("core/step_alloc_bytes");
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::ScopedTimer epoch_timer(epoch_stage);
    rng.Shuffle(order);
    const size_t use_edges =
        config_.max_pairs_per_epoch == 0
            ? order.size()
            : std::min(order.size(), config_.max_pairs_per_epoch);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < use_edges; start += edge_batch) {
      const size_t end = std::min(use_edges, start + edge_batch);
      const uint64_t alloc_before =
          pool::MissBytes() + ag::Tape::TotalReservedBytes();
      double batch_loss = 0.0;
      if (pool == nullptr || end - start < 2 * train_threads) {
        batch_loss = run_batch(start, end, rng).first;
      } else {
        // Data-parallel shards: each worker backprops its slice of the
        // batch under a private gradient sink; the main thread reduces
        // sinks into the shared grads (weighted by element share, since
        // BCE is a mean over elements) before the single Adam step.
        const size_t count = end - start;
        const size_t shards = std::min<size_t>(train_threads, count);
        Rng bmaster(rng.NextUint64());
        pool->ParallelFor(shards, [&](size_t w) {
          Rng wrng = bmaster.Fork(w);
          ag::GradSinkScope scope(&sinks[w]);
          const size_t lo = start + count * w / shards;
          const size_t hi = start + count * (w + 1) / shards;
          auto [l, n] = run_batch(lo, hi, wrng);
          shard_loss[w] = l;
          shard_elems[w] = n;
        });
        size_t total_elems = 0;
        for (size_t w = 0; w < shards; ++w) total_elems += shard_elems[w];
        for (size_t w = 0; w < shards; ++w) {
          const float weight = static_cast<float>(shard_elems[w]) /
                               static_cast<float>(total_elems);
          for (auto& [node, grad] : sinks[w]) {
            if (node->grad.empty()) {
              node->grad = Tensor(node->value.rows(), node->value.cols());
            }
            node->grad.Axpy(weight, grad);
            grad.Zero();  // keep the slot for the next batch
          }
          batch_loss += shard_loss[w] *
                        (static_cast<double>(shard_elems[w]) /
                         static_cast<double>(total_elems));
        }
      }
      if (!std::isfinite(batch_loss)) {
        nonfinite_counter.Add(1);
        return Status::FailedPrecondition(
            "non-finite training loss " + std::to_string(batch_loss) +
            " at epoch " + std::to_string(epoch) + " batch " +
            std::to_string(batches));
      }
      optimizer.Step();
      optimizer.ZeroGrad();
      step_alloc_gauge.Set(static_cast<double>(
          pool::MissBytes() + ag::Tape::TotalReservedBytes() - alloc_before));
      epoch_loss += batch_loss;
      ++batches;
    }
    minibatch_counter.Add(batches);
    epoch_loss /= std::max<size_t>(1, batches);
    last_epoch_loss_ = epoch_loss;
    loss_gauge.Set(epoch_loss);
    const double val = validation_auc();
    if (config_.verbose) {
      HYBRIDGNN_LOG(Info) << "HybridGNN epoch " << epoch << " loss "
                          << epoch_loss << " val-auc " << val;
    }
    options.Report("epoch", epoch + 1, config_.epochs);
    if (val > best_val + 1e-4) {
      best_val = val;
      best_snapshot = snapshot();
      bad_epochs = 0;
    } else if (++bad_epochs >= config_.early_stopping_patience) {
      break;
    }
  }
  if (config_.restore_best) restore(best_snapshot);

  // ---- Freeze: cache e*_{v,r} for every node and relation. The forward
  // pass samples neighbors stochastically, so we average a few samples to
  // reduce inference variance (training sees many samples implicitly).
  obs::ScopedTimer cache_timer(obs::Stage("core/embedding_cache"));
  cache_ = Tensor(v_count * num_relations_, config_.base_dim);
  constexpr size_t kCacheSamples = 4;
  constexpr size_t kChunkNodes = kForwardChunk / kCacheSamples;
  const size_t num_chunks = (v_count + kChunkNodes - 1) / kChunkNodes;
  // Serial: one stream in node order. Parallel: a forked stream per node,
  // so the cache is reproducible and invariant to the thread count.
  const Rng cache_master(config_.seed ^ 0xC0FFEE);
  Rng cache_rng(config_.seed ^ 0xC0FFEE);
  // Chunk c: its nodes' kCacheSamples sketches each as one batched forward.
  // A chunk writes only its own nodes' rows, averaging in sample order.
  auto cache_chunk = [&](size_t c, bool forked) {
    const size_t lo = c * kChunkNodes;
    const size_t hi = std::min(v_count, lo + kChunkNodes);
    std::vector<NodeSketch> sketches(kCacheSamples * (hi - lo));
    for (size_t v = lo; v < hi; ++v) {
      Rng node_rng = forked ? cache_master.Fork(v) : Rng(0);
      Rng& vrng = forked ? node_rng : cache_rng;
      for (size_t s = 0; s < kCacheSamples; ++s) {
        SampleNode(g, static_cast<NodeId>(v), vrng,
                   &sketches[kCacheSamples * (v - lo) + s]);
      }
    }
    ag::TapeScope tape;  // inference-only graph, rewound per chunk
    ag::Var all = ForwardSketches(sketches);
    const size_t n = sketches.size();
    for (size_t v = lo; v < hi; ++v) {
      for (size_t s = 0; s < kCacheSamples; ++s) {
        for (RelationId r = 0; r < num_relations_; ++r) {
          const float* src =
              all->value.RowPtr(r * n + kCacheSamples * (v - lo) + s);
          float* dst = cache_.RowPtr(v * num_relations_ + r);
          for (size_t j = 0; j < config_.base_dim; ++j) {
            dst[j] += src[j] / static_cast<float>(kCacheSamples);
          }
        }
      }
    }
  };
  if (threads > 1) {
    RunParallel(threads, num_chunks,
                [&](size_t c) { cache_chunk(c, /*forked=*/true); });
  } else {
    for (size_t c = 0; c < num_chunks; ++c) cache_chunk(c, false);
  }
  options.Report("cache", 1, 1);
  fitted_ = true;
  return Status::OK();
}

Tensor HybridGnn::EmbeddingsFor(
    std::span<const std::pair<NodeId, RelationId>> queries) const {
  HYBRIDGNN_CHECK(fitted_) << "Fit() must succeed before EmbeddingsFor()";
  Tensor out(queries.size(), config_.base_dim);
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& [v, r] = queries[i];
    HYBRIDGNN_CHECK(r < num_relations_ &&
                    v * num_relations_ + r < cache_.rows());
    std::memcpy(out.RowPtr(i), cache_.RowPtr(v * num_relations_ + r),
                config_.base_dim * sizeof(float));
  }
  return out;
}

Tensor HybridGnn::Embedding(NodeId v, RelationId r) const {
  HYBRIDGNN_CHECK(fitted_) << "Fit() must succeed before Embedding()";
  HYBRIDGNN_CHECK(r < num_relations_ &&
                  v * num_relations_ + r < cache_.rows());
  return cache_.CopyRow(v * num_relations_ + r);
}

std::vector<double> HybridGnn::MetapathAttentionScores(NodeId v,
                                                       RelationId r) const {
  HYBRIDGNN_CHECK(fitted_) << "Fit() must succeed first";
  Rng rng(config_.seed ^ (0x9E37ULL * (v + 1)) ^ r);
  ag::TapeScope tape;
  ag::Var stack = FlowStack(*graph_, v, r, rng);
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
      if (!s.IsIntraRelationship() || s.relation() != r ||
          s.source_type() != g.node_type(v)) {
        continue;
      }
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
