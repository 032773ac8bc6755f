#include "baselines/gcn.h"

#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/sparse.h"

namespace hybridgnn {

Status Gcn::Fit(const MultiplexHeteroGraph& g, const FitOptions&) {
  Rng rng(options_.seed);
  SparseMatrix s = NormalizedAdjacency(g);

  EmbeddingTable features(g.num_nodes(), options_.input_dim, rng);
  Linear w1(options_.input_dim, options_.hidden_dim, rng);
  Linear w2(options_.hidden_dim, options_.output_dim, rng);
  Adam optimizer(options_.train.learning_rate);
  optimizer.AddParameters(features.parameters());
  optimizer.AddParameters(w1.parameters());
  optimizer.AddParameters(w2.parameters());

  auto forward = [&]() {
    ag::Var h1 = ag::Relu(w1.Forward(SpMM(s, features.table())));
    return w2.Forward(SpMM(s, h1));  // [V, out]
  };

  ag::Var h;
  HYBRIDGNN_RETURN_IF_ERROR(TrainLink(
      "GCN", g, options_.train, optimizer, rng,
      {.begin = [&] { h = forward(); },
       .visit = [](NodeId) {},
       .logits = [&](std::span<const EdgeTriple> batch) {
         std::vector<int32_t> us, vs;
         for (const EdgeTriple& e : batch) {
           us.push_back(static_cast<int32_t>(e.src));
           vs.push_back(static_cast<int32_t>(e.dst));
         }
         ag::Var hu = ag::GatherRows(h, std::move(us));
         ag::Var hv = ag::GatherRows(h, std::move(vs));
         return ag::RowwiseDot(hu, hv);
       }}));
  return SetTable("GCN", forward()->value);
}

}  // namespace hybridgnn
