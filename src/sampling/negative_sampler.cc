#include "sampling/negative_sampler.h"

#include <cmath>

#include "common/logging.h"

namespace hybridgnn {

NegativeSampler::NegativeSampler(const MultiplexHeteroGraph& g, double power,
                                 double smoothing)
    : graph_(&g) {
  per_type_.reserve(g.num_node_types());
  std::vector<double> global_weights(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    global_weights[v] =
        std::pow(static_cast<double>(g.TotalDegree(v)) + smoothing, power);
  }
  for (NodeTypeId t = 0; t < g.num_node_types(); ++t) {
    const auto& nodes = g.NodesOfType(t);
    std::vector<Slot>& slots = per_type_.emplace_back(nodes.size());
    if (nodes.empty()) continue;
    std::vector<double> weights(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      weights[i] = global_weights[nodes[i]];
    }
    const AliasTable table(weights);
    for (size_t i = 0; i < nodes.size(); ++i) {
      slots[i] = Slot{table.prob(i), nodes[i], nodes[table.alias(i)]};
    }
  }
  global_ = AliasTable(global_weights);
}

NodeId NegativeSampler::SampleAny(Rng& rng) const {
  return static_cast<NodeId>(global_.Sample(rng));
}

NodeId NegativeSampler::SampleRelationAware(NodeId center, NodeId like,
                                            RelationId rel,
                                            double cross_fraction,
                                            Rng& rng) const {
  const MultiplexHeteroGraph& g = *graph_;
  if (rng.Bernoulli(cross_fraction)) {
    const NodeTypeId want = g.node_type(like);
    // Reservoir-sample one admissible cross-relation neighbor.
    NodeId chosen = kInvalidNode;
    size_t seen = 0;
    for (RelationId r : g.ActiveRelations(center)) {
      if (r == rel) continue;
      for (NodeId u : g.Neighbors(center, r)) {
        if (g.node_type(u) != want || u == center) continue;
        if (g.HasEdge(center, u, rel)) continue;
        ++seen;
        if (rng.UniformUint64(seen) == 0) chosen = u;
      }
    }
    if (chosen != kInvalidNode) return chosen;
  }
  return SampleLike(like, rng);
}

}  // namespace hybridgnn
