#include "baselines/rgcn.h"

#include <memory>

#include "common/logging.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/sparse.h"
#include "tensor/init.h"

namespace hybridgnn {

Status Rgcn::Fit(const MultiplexHeteroGraph& g, const FitOptions&) {
  Rng rng(options_.seed);
  const size_t num_rel = g.num_relations();

  std::vector<RelationOperator> ops;
  ops.reserve(num_rel);
  for (RelationId r = 0; r < num_rel; ++r) {
    ops.push_back(RelationAdjacency(g, r));
  }

  EmbeddingTable features(g.num_nodes(), options_.input_dim, rng);
  std::vector<std::unique_ptr<Linear>> w_rel1, w_rel2;
  for (RelationId r = 0; r < num_rel; ++r) {
    w_rel1.push_back(std::make_unique<Linear>(options_.input_dim,
                                              options_.hidden_dim, rng));
    w_rel2.push_back(std::make_unique<Linear>(options_.hidden_dim,
                                              options_.output_dim, rng));
  }
  Linear w_self1(options_.input_dim, options_.hidden_dim, rng);
  Linear w_self2(options_.hidden_dim, options_.output_dim, rng);
  Tensor diag_init(num_rel, options_.output_dim);
  UniformInit(diag_init, rng, 0.5f, 1.5f);
  ag::Var rel_diag = ag::Param(std::move(diag_init));

  Adam optimizer(options_.train.learning_rate);
  optimizer.AddParameters(features.parameters());
  for (const auto& w : w_rel1) optimizer.AddParameters(w->parameters());
  for (const auto& w : w_rel2) optimizer.AddParameters(w->parameters());
  optimizer.AddParameters(w_self1.parameters());
  optimizer.AddParameters(w_self2.parameters());
  optimizer.AddParameter(rel_diag);

  auto layer = [&](const ag::Var& h,
                   const std::vector<std::unique_ptr<Linear>>& w_rel,
                   const Linear& w_self) {
    ag::Var out = w_self.Forward(h);
    for (RelationId r = 0; r < num_rel; ++r) {
      out = ag::Add(out, w_rel[r]->Forward(SpMM(ops[r], h)));
    }
    return out;
  };
  auto forward = [&]() {
    ag::Var h1 = ag::Relu(layer(features.table(), w_rel1, w_self1));
    return layer(h1, w_rel2, w_self2);  // [V, out]
  };

  ag::Var h;
  HYBRIDGNN_RETURN_IF_ERROR(TrainLink(
      "R-GCN", g, options_.train, optimizer, rng,
      {.begin = [&] { h = forward(); },
       .visit = [](NodeId) {},
       .logits = [&](std::span<const EdgeTriple> batch) {
         std::vector<int32_t> us, vs, rs;
         for (const EdgeTriple& e : batch) {
           us.push_back(static_cast<int32_t>(e.src));
           vs.push_back(static_cast<int32_t>(e.dst));
           rs.push_back(static_cast<int32_t>(e.rel));
         }
         ag::Var hu = ag::GatherRows(h, std::move(us));
         ag::Var hv = ag::GatherRows(h, std::move(vs));
         ag::Var wr = ag::GatherRows(rel_diag, std::move(rs));
         // DistMult: sum_j hu_j * w_j * hv_j.
         return ag::RowwiseDot(ag::Mul(hu, wr), hv);
       }}));
  relation_diag_ = rel_diag->value;
  return SetTable("R-GCN", forward()->value);
}

double Rgcn::Score(NodeId u, NodeId v, RelationId r) const {
  const float* hu = Row(u);
  const float* hv = Row(v);
  HYBRIDGNN_CHECK(r < relation_diag_.rows())
      << "R-GCN: relation " << r << " outside the " << relation_diag_.rows()
      << " fitted relations";
  const float* w = relation_diag_.RowPtr(r);
  double s = 0.0;
  for (size_t j = 0; j < relation_diag_.cols(); ++j) {
    s += static_cast<double>(hu[j]) * w[j] * hv[j];
  }
  return s;
}

std::vector<double> Rgcn::ScoreMany(
    std::span<const EdgeTriple> queries) const {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const auto& q : queries) out.push_back(Score(q.src, q.dst, q.rel));
  return out;
}

}  // namespace hybridgnn
