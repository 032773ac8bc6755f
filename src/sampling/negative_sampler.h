#ifndef HYBRIDGNN_SAMPLING_NEGATIVE_SAMPLER_H_
#define HYBRIDGNN_SAMPLING_NEGATIVE_SAMPLER_H_

#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "sampling/alias.h"

namespace hybridgnn {

/// Heterogeneous negative sampler (metapath2vec style): draws noise nodes
/// from the unigram distribution raised to `power` (0.75 by default),
/// restricted to a given node type so negatives are type-compatible with the
/// positive context node.
///
/// Each type's alias table is flattened into one 16-byte slot per node
/// (keep probability, the node, its alias node), so a typed draw costs one
/// slot load and draws and compares as AliasTable::Sample does. The typed
/// draws are inline: SGNS makes five per skip-gram pair.
class NegativeSampler {
 public:
  /// Builds per-type alias tables from total degrees in `g`. Nodes with zero
  /// degree get weight `smoothing` so every node remains sampleable.
  NegativeSampler(const MultiplexHeteroGraph& g, double power = 0.75,
                  double smoothing = 1e-3);

  /// Samples one node of type `t`.
  NodeId SampleOfType(NodeTypeId t, Rng& rng) const {
    HYBRIDGNN_CHECK(t < per_type_.size()) << "unknown node type";
    const std::vector<Slot>& slots = per_type_[t];
    HYBRIDGNN_CHECK(!slots.empty()) << "no nodes of requested type";
    const Slot& s = slots[rng.UniformUint64(slots.size())];
    return rng.UniformDouble() < s.prob ? s.node : s.alias_node;
  }

  /// Samples one node of the same type as `like`, excluding `like` itself
  /// (retries a few times, then accepts a collision on tiny type sets).
  NodeId SampleLike(NodeId like, Rng& rng) const {
    const NodeTypeId t = graph_->node_type(like);
    for (int attempt = 0; attempt < 8; ++attempt) {
      const NodeId v = SampleOfType(t, rng);
      if (v != like) return v;
    }
    return SampleOfType(t, rng);
  }

  /// Samples any node from the global distribution.
  NodeId SampleAny(Rng& rng) const;

  /// Relationship-aware negative: with probability `cross_fraction`,
  /// tries to return a *cross-relation* neighbor of `center` — a node of
  /// `like`'s type linked to `center` under some relation other than `rel`
  /// but not under `rel` itself. Falls back to SampleLike(like). This
  /// instantiates the paper's noise distribution P_Neg (Eq. 13) for the
  /// relationship-specific recommendation task: the model must learn not
  /// just who interacts, but under *which* relationship.
  NodeId SampleRelationAware(NodeId center, NodeId like, RelationId rel,
                             double cross_fraction, Rng& rng) const;

 private:
  /// One alias slot of a type's table, holding node ids, not indices.
  struct Slot {
    double prob;
    NodeId node, alias_node;
  };
  static_assert(sizeof(Slot) == 16);

  const MultiplexHeteroGraph* graph_;
  std::vector<std::vector<Slot>> per_type_;  // empty for a type with no node
  AliasTable global_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_SAMPLING_NEGATIVE_SAMPLER_H_
