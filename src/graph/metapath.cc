#include "graph/metapath.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"

namespace hybridgnn {

MetapathScheme::MetapathScheme(std::vector<NodeTypeId> node_types,
                               std::vector<RelationId> relations)
    : node_types_(std::move(node_types)), relations_(std::move(relations)) {
  HYBRIDGNN_CHECK(node_types_.size() == relations_.size() + 1)
      << "metapath scheme needs n+1 node types for n relations";
  HYBRIDGNN_CHECK(!relations_.empty()) << "metapath scheme needs >= 1 hop";
}

bool MetapathScheme::IsIntraRelationship() const {
  return std::all_of(relations_.begin(), relations_.end(),
                     [this](RelationId r) { return r == relations_[0]; });
}

Status MetapathScheme::Validate(const MultiplexHeteroGraph& g) const {
  for (NodeTypeId t : node_types_) {
    if (t >= g.num_node_types()) {
      return Status::InvalidArgument(
          StrFormat("scheme references unknown node type %u",
                    static_cast<unsigned>(t)));
    }
  }
  for (RelationId r : relations_) {
    if (r >= g.num_relations()) {
      return Status::InvalidArgument(StrFormat(
          "scheme references unknown relation %u", static_cast<unsigned>(r)));
    }
  }
  return Status::OK();
}

std::string MetapathScheme::ToString(const MultiplexHeteroGraph& g) const {
  std::string out = g.node_type_name(node_types_[0]);
  for (size_t i = 0; i < relations_.size(); ++i) {
    out += " -" + g.relation_name(relations_[i]) + "-> ";
    out += g.node_type_name(node_types_[i + 1]);
  }
  return out;
}

StatusOr<MetapathScheme> MetapathScheme::ParseIntra(
    const MultiplexHeteroGraph& g, const std::string& pattern,
    RelationId rel) {
  if (rel >= g.num_relations()) {
    return Status::InvalidArgument("unknown relation id");
  }
  std::vector<std::string> tokens = Split(pattern, '-');
  if (tokens.size() < 2) {
    return Status::InvalidArgument("metapath pattern needs >= 2 node types: " +
                                   pattern);
  }
  std::vector<NodeTypeId> types;
  for (const auto& tok : tokens) {
    std::string name(StripWhitespace(tok));
    NodeTypeId t = g.FindNodeType(name);
    if (t == kInvalidNodeType && name.size() == 1) {
      // Single-letter shorthand: match the first type whose name starts
      // with the letter (case-insensitive), e.g. "U" -> "user".
      for (NodeTypeId cand = 0; cand < g.num_node_types(); ++cand) {
        const std::string& full = g.node_type_name(cand);
        if (!full.empty() &&
            std::tolower(full[0]) == std::tolower(name[0])) {
          t = cand;
          break;
        }
      }
    }
    if (t == kInvalidNodeType) {
      return Status::NotFound("node type not found: " + name);
    }
    types.push_back(t);
  }
  std::vector<RelationId> rels(types.size() - 1, rel);
  return MetapathScheme(std::move(types), std::move(rels));
}

std::vector<MetapathScheme> DefaultSchemes(const MultiplexHeteroGraph& g,
                                           size_t max_schemes_per_relation) {
  std::vector<MetapathScheme> out;
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    // Collect type pairs connected under r.
    std::set<std::pair<NodeTypeId, NodeTypeId>> pairs;
    for (const auto& e : g.EdgesOfRelation(r)) {
      pairs.emplace(g.node_type(e.src), g.node_type(e.dst));
      pairs.emplace(g.node_type(e.dst), g.node_type(e.src));
    }
    size_t added = 0;
    for (const auto& [a, b] : pairs) {
      if (added >= max_schemes_per_relation) break;
      out.emplace_back(std::vector<NodeTypeId>{a, b, a},
                       std::vector<RelationId>{r, r});
      ++added;
    }
  }
  return out;
}

}  // namespace hybridgnn
