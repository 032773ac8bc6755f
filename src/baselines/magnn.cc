#include "baselines/magnn.h"

#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/semantic_attention.h"
#include "sampling/walker.h"

namespace hybridgnn {

Status Magnn::Fit(const MultiplexHeteroGraph& g, const FitOptions&) {
  for (const auto& s : schemes_) HYBRIDGNN_RETURN_IF_ERROR(s.Validate(g));
  Rng rng(options_.seed);
  EmbeddingTable features(g.num_nodes(), options_.dim, rng);
  Linear instance_proj(options_.dim, options_.dim, rng);
  SemanticAttention semantic(options_.dim, options_.semantic_hidden, rng);
  Adam optimizer(options_.train.learning_rate);
  optimizer.AddParameters(features.parameters());
  optimizer.AddParameters(instance_proj.parameters());
  optimizer.AddParameters(semantic.parameters());

  // One metapath embedding: mean over sampled instance encodings, where an
  // instance encoding is the (projected) mean of all its node embeddings.
  auto path_embed = [&](const MetapathScheme& s, NodeId v, Rng& r) -> ag::Var {
    std::vector<ag::Var> instances;
    for (size_t i = 0; i < options_.instances_per_path; ++i) {
      std::vector<NodeId> inst = MetapathWalk(g, s, v, s.length(), r);
      if (inst.size() < 2) continue;
      ag::Var nodes = features.ForwardNodes(inst);
      instances.push_back(ag::MeanRows(nodes));
    }
    if (instances.empty()) return features.ForwardNodes({v});
    ag::Var intra = instances.size() == 1
                        ? instances[0]
                        : ag::MeanRows(ag::ConcatRows(instances));
    return ag::Tanh(instance_proj.Forward(intra));
  };

  auto forward = [&](NodeId v, Rng& r) {
    std::vector<ag::Var> per_path;
    for (const auto& s : schemes_) {
      if (s.source_type() != g.node_type(v)) continue;
      per_path.push_back(path_embed(s, v, r));
    }
    if (per_path.empty()) return features.ForwardNodes({v});
    if (per_path.size() == 1) return per_path[0];
    return semantic.Forward(ag::ConcatRows(per_path));
  };

  HYBRIDGNN_RETURN_IF_ERROR(TrainLink(
      "MAGNN", g, options_.train, optimizer, rng,
      MemoizedDotHooks([&](NodeId v) { return forward(v, rng); })));

  Rng cache_rng(options_.seed ^ 0xBEEFED);
  return SetTable("MAGNN",
                  TableOf(g.num_nodes(), options_.dim, [&](NodeId v) {
                    return forward(v, cache_rng);
                  }));
}

}  // namespace hybridgnn
