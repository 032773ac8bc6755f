#include "baselines/gatne.h"

#include <cmath>

#include "common/logging.h"
#include "nn/sparse.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/init.h"

namespace hybridgnn {

void Gatne::SampleNode(const MultiplexHeteroGraph& g, NodeId v, Rng& rng,
                       NodeSketch* out) const {
  out->v = v;
  MinibatchFrontier& f = out->frontier;
  BuildRelationFrontier(g, v, options_.fanout, rng, &f);
  // The edge table keys rows as node * R + relation; remap each segment's
  // raw NodeIds in place.
  for (RelationId r = 0; r < num_relations_; ++r) {
    for (size_t i = f.indptr[r]; i < f.indptr[r + 1]; ++i) {
      f.indices[i] = static_cast<int32_t>(
          static_cast<size_t>(f.indices[i]) * num_relations_ + r);
    }
  }
}

ag::Var Gatne::ForwardNodeSketch(const NodeSketch& sk) const {
  const MinibatchFrontier& frontier = sk.frontier;
  // U_v: per-relation aggregated edge embeddings (mean over sampled direct
  // neighbors' edge embeddings under that relation; own embedding when
  // isolated). One frontier with a segment per relation replaces the
  // per-relation gather+mean walk: a single fused gather of the flat index
  // list, then one segment mean straight to the [R, edge] stack.
  ag::Var block = GatherRowsSegmented(edge_embed_->table(), frontier);
  ag::Var u_stack = SegmentMean(block, frontier);  // [R, edge]

  ag::Var hidden = ag::Tanh(attn_proj_->Forward(u_stack));  // [R, hidden]
  ag::Var base_row = base_->ForwardNodes({sk.v});           // [1, base]

  std::vector<ag::Var> out_rows;
  out_rows.reserve(num_relations_);
  for (RelationId r = 0; r < num_relations_; ++r) {
    // a_{v,r} = softmax(w_r^T tanh(W U_v^T)) over relations.
    ag::Var scores = ag::MatMul(hidden, attn_query_[r]);      // [R, 1]
    ag::Var weights = ag::SoftmaxRows(ag::Transpose(scores)); // [1, R]
    ag::Var mixed = ag::MatMul(weights, u_stack);             // [1, edge]
    out_rows.push_back(ag::MatMul(mixed, m_rel_[r]));         // [1, base]
  }
  ag::Var local =
      out_rows.size() == 1 ? out_rows[0] : ag::ConcatRows(out_rows);
  if (options_.local_scale != 1.0f) {
    local = ag::Scale(local, options_.local_scale);
  }
  return ag::AddRowBroadcast(local, base_row);  // [R, base]
}

ag::Var Gatne::ForwardSketches(std::span<const NodeSketch> sketches) const {
  const size_t n = sketches.size();
  const size_t num_rel = num_relations_;
  HYBRIDGNN_CHECK(n > 0) << "ForwardSketches of no sketches";
  // Per-thread scratch, reused across calls; the ops below copy the index
  // and segment arrays their backwards keep.
  static thread_local MinibatchFrontier all;
  static thread_local std::vector<int32_t> idx;

  // U for every node: one frontier with n * R segments, node-major (node
  // i's relation r is segment i * R + r), gathered and averaged at once.
  all.Clear();
  for (const NodeSketch& sk : sketches) {
    const MinibatchFrontier& f = sk.frontier;
    HYBRIDGNN_CHECK(f.num_segments() == num_rel)
        << "frontier with " << f.num_segments() << " segments, expected "
        << num_rel;
    const size_t at = all.indices.size();
    all.indices.insert(all.indices.end(), f.indices.begin(), f.indices.end());
    for (size_t r = 1; r <= num_rel; ++r) {
      all.indptr.push_back(at + f.indptr[r]);
    }
  }
  ag::Var u = SegmentMean(GatherRowsSegmented(edge_embed_->table(), all),
                          all);                               // [n * R, edge]
  ag::Var hidden = ag::Tanh(attn_proj_->Forward(u));          // [n * R, hidden]

  // a_{v,r} = softmax(w_r^T tanh(W U_v^T)) over relations, per node: block
  // i of the logits is [R, R], row r holding w_r against each of node i's R
  // hidden rows. The stacked queries [R, hidden] repeat once per block.
  std::vector<ag::Var> queries;
  queries.reserve(num_rel);
  for (const ag::Var& q : attn_query_) queries.push_back(ag::Transpose(q));
  idx.clear();
  for (size_t i = 0; i < n; ++i) {
    for (size_t r = 0; r < num_rel; ++r) idx.push_back(static_cast<int32_t>(r));
  }
  ag::Var query_rows = ag::GatherRows(
      queries.size() == 1 ? queries[0] : ag::ConcatRows(queries), idx);
  ag::Var weights =
      ag::SoftmaxRows(ag::BatchedMatMulTransB(query_rows, hidden, n));
  ag::Var mixed = ag::BatchedMatMul(weights, u, n);  // [n * R, edge]

  // M_r^T of each mixed row: the rows regrouped relation-major, then one
  // block product against the stacked M_r.
  ag::Var m = m_rel_[0];
  if (num_rel > 1) {
    idx.clear();
    for (size_t r = 0; r < num_rel; ++r) {
      for (size_t i = 0; i < n; ++i) {
        idx.push_back(static_cast<int32_t>(i * num_rel + r));
      }
    }
    mixed = ag::GatherRows(mixed, idx);
    m = ag::ConcatRows(m_rel_);  // [R * edge, base]
  }
  ag::Var local = ag::BatchedMatMul(mixed, m, num_rel);  // [R * n, base]
  if (options_.local_scale != 1.0f) {
    local = ag::Scale(local, options_.local_scale);
  }
  idx.clear();
  for (size_t r = 0; r < num_rel; ++r) {
    for (const NodeSketch& sk : sketches) {
      idx.push_back(static_cast<int32_t>(sk.v));
    }
  }
  return ag::Add(local, ag::GatherRows(base_->table(), idx));  // [R * n, base]
}

Status Gatne::Fit(const MultiplexHeteroGraph& g, const FitOptions& options) {
  if (!std::isfinite(options_.learning_rate) ||
      options_.learning_rate <= 0.0f) {
    return Status::InvalidArgument(
        "GATNE: learning_rate must be finite and positive");
  }
  if (!std::isfinite(options_.local_scale)) {
    return Status::InvalidArgument("GATNE: local_scale must be finite");
  }
  if (g.num_nodes() == 0) return Status::InvalidArgument("empty graph");
  for (const auto& s : schemes_) HYBRIDGNN_RETURN_IF_ERROR(s.Validate(g));
  num_relations_ = g.num_relations();
  Rng rng(options_.seed);

  base_ =
      std::make_unique<EmbeddingTable>(g.num_nodes(), options_.base_dim, rng);
  context_ =
      std::make_unique<EmbeddingTable>(g.num_nodes(), options_.base_dim, rng);
  edge_embed_ = std::make_unique<EmbeddingTable>(
      g.num_nodes() * num_relations_, options_.edge_dim, rng);
  attn_proj_ =
      std::make_unique<Linear>(options_.edge_dim, options_.attn_hidden, rng);
  attn_query_.clear();
  m_rel_.clear();
  for (RelationId r = 0; r < num_relations_; ++r) {
    Tensor q(options_.attn_hidden, 1);
    XavierUniform(q, rng);
    attn_query_.push_back(ag::Param(std::move(q)));
    // Zero-init output projection (see HybridGNN): the relation-specific
    // branch phases in without swamping the base embedding early on.
    m_rel_.push_back(
        ag::Param(Tensor(options_.edge_dim, options_.base_dim)));
  }

  TowerParams params(base_->table(), context_->table());
  params.Add(edge_embed_->parameters());
  params.Add(attn_proj_->parameters());
  params.Add(attn_query_);
  params.Add(m_rel_);
  params.output = m_rel_;
  return MinibatchTrainer(Spec(), options)
      .Fit(g, *this, params, rng, &cache_);
}

TrainerSpec Gatne::Spec() const {
  TrainerSpec spec = TrainerSpec::From(name(), options_);
  spec.cache_seed = options_.seed ^ 0xDEFACE;
  return spec;
}

}  // namespace hybridgnn
