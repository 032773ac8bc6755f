#ifndef HYBRIDGNN_GRAPH_METAPATH_H_
#define HYBRIDGNN_GRAPH_METAPATH_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace hybridgnn {

/// A metapath scheme P = o_0 -r_1-> o_1 -r_2-> ... -r_n-> o_n
/// (Definition 3). `node_types` has length n+1 and `relations` length n.
/// When all relations coincide, the scheme is intra-relationship; otherwise
/// it is inter-relationship.
class MetapathScheme {
 public:
  MetapathScheme() = default;
  MetapathScheme(std::vector<NodeTypeId> node_types,
                 std::vector<RelationId> relations);

  /// Number of hops n (= |P|).
  size_t length() const { return relations_.size(); }
  const std::vector<NodeTypeId>& node_types() const { return node_types_; }
  const std::vector<RelationId>& relations() const { return relations_; }
  NodeTypeId source_type() const { return node_types_.front(); }
  NodeTypeId target_type() const { return node_types_.back(); }

  /// True when r_1 = r_2 = ... = r_n (Definition 3).
  bool IsIntraRelationship() const;
  /// The single relation of an intra-relationship scheme.
  RelationId relation() const { return relations_.front(); }
  /// Whether this scheme is in rho(v) ∩ PS_r: intra-relationship under r
  /// and starting at v's node type.
  bool Matches(const MultiplexHeteroGraph& g, NodeId v, RelationId r) const {
    return IsIntraRelationship() && relation() == r &&
           source_type() == g.node_type(v);
  }

  /// Validates all type/relation ids against `g`.
  Status Validate(const MultiplexHeteroGraph& g) const;

  /// Human-readable form, e.g. "user -click-> item -click-> user".
  std::string ToString(const MultiplexHeteroGraph& g) const;

  bool operator==(const MetapathScheme& o) const {
    return node_types_ == o.node_types_ && relations_ == o.relations_;
  }

  /// Parses a compact intra-relationship scheme "U-I-U" where each letter
  /// (or dash-separated token) names a node type of `g` (first letter match
  /// is attempted when the exact name is absent), all hops using `rel`.
  static StatusOr<MetapathScheme> ParseIntra(const MultiplexHeteroGraph& g,
                                             const std::string& pattern,
                                             RelationId rel);

 private:
  std::vector<NodeTypeId> node_types_;
  std::vector<RelationId> relations_;
};

/// Generates the default intra-relationship scheme set used when a dataset
/// profile does not specify its own: for every relation r and every ordered
/// type pair (a, b) connected under r in `g`, the symmetric 2-hop scheme
/// a -r-> b -r-> a. Capped at `max_schemes_per_relation` per relation.
std::vector<MetapathScheme> DefaultSchemes(const MultiplexHeteroGraph& g,
                                           size_t max_schemes_per_relation);

}  // namespace hybridgnn

#endif  // HYBRIDGNN_GRAPH_METAPATH_H_
