#include "graph/graph_io.h"

#include <fstream>
#include <unordered_map>

#include "common/string_util.h"

namespace hybridgnn {

Status SaveGraph(const MultiplexHeteroGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << "# hybridgnn multiplex heterogeneous graph v1\n";
  out << "node_types";
  for (NodeTypeId t = 0; t < g.num_node_types(); ++t) {
    out << ' ' << g.node_type_name(t);
  }
  out << '\n';
  out << "relations";
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    out << ' ' << g.relation_name(r);
  }
  out << '\n';
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out << "node " << v << ' ' << g.node_type_name(g.node_type(v)) << '\n';
  }
  for (const auto& e : g.edges()) {
    out << "edge " << e.src << ' ' << e.dst << ' ' << g.relation_name(e.rel)
        << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

StatusOr<MultiplexHeteroGraph> LoadGraph(const std::string& path,
                                         LoadStrictness strictness) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  GraphBuilder builder;
  builder.set_reject_duplicates(strictness == LoadStrictness::kStrict);
  std::unordered_map<std::string, NodeTypeId> type_by_name;
  std::unordered_map<std::string, RelationId> rel_by_name;
  NodeId expected_node = 0;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view text = StripWhitespace(line);
    if (text.empty() || text[0] == '#') continue;
    std::vector<std::string> fields = Split(std::string(text), ' ');
    const std::string& kind = fields[0];
    auto fail = [&](const std::string& why) -> Status {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: %s", path.c_str(), lineno, why.c_str()));
    };
    if (kind == "node_types") {
      if (fields.size() < 2) return fail("node_types needs >= 1 name");
      for (size_t i = 1; i < fields.size(); ++i) {
        HYBRIDGNN_ASSIGN_OR_RETURN(NodeTypeId t,
                                   builder.AddNodeType(fields[i]));
        type_by_name[fields[i]] = t;
      }
    } else if (kind == "relations") {
      if (fields.size() < 2) return fail("relations needs >= 1 name");
      for (size_t i = 1; i < fields.size(); ++i) {
        HYBRIDGNN_ASSIGN_OR_RETURN(RelationId r,
                                   builder.AddRelation(fields[i]));
        rel_by_name[fields[i]] = r;
      }
    } else if (kind == "node") {
      if (fields.size() != 3) return fail("node needs <id> <type>");
      HYBRIDGNN_ASSIGN_OR_RETURN(int64_t id, ParseInt64(fields[1]));
      if (id != static_cast<int64_t>(expected_node)) {
        return fail(
            StrFormat("node ids must be dense; expected %u", expected_node));
      }
      auto it = type_by_name.find(fields[2]);
      if (it == type_by_name.end()) {
        return fail("unknown node type: " + fields[2]);
      }
      HYBRIDGNN_ASSIGN_OR_RETURN(NodeId added, builder.AddNode(it->second));
      (void)added;
      ++expected_node;
    } else if (kind == "edge") {
      if (fields.size() != 4) return fail("edge needs <src> <dst> <rel>");
      HYBRIDGNN_ASSIGN_OR_RETURN(int64_t src, ParseInt64(fields[1]));
      HYBRIDGNN_ASSIGN_OR_RETURN(int64_t dst, ParseInt64(fields[2]));
      // Range-check before narrowing, so 2^32 + 1 cannot wrap to node 1.
      const auto nodes = static_cast<int64_t>(builder.num_nodes());
      if (src < 0 || src >= nodes || dst < 0 || dst >= nodes) {
        return fail(StrFormat("edge endpoint out of range: %lld-%lld "
                              "(nodes=%lld)",
                              static_cast<long long>(src),
                              static_cast<long long>(dst),
                              static_cast<long long>(nodes)));
      }
      auto it = rel_by_name.find(fields[3]);
      if (it == rel_by_name.end()) {
        return fail("unknown relation: " + fields[3]);
      }
      Status added_edge = builder.AddEdge(
          static_cast<NodeId>(src), static_cast<NodeId>(dst), it->second);
      if (!added_edge.ok()) {
        // Keep the builder's code (AlreadyExists for strict-mode dupes),
        // prefix the file position.
        return Status(added_edge.code(),
                      StrFormat("%s:%zu: %s", path.c_str(), lineno,
                                added_edge.message().c_str()));
      }
    } else {
      return fail("unknown record kind: " + kind);
    }
  }
  return builder.Build();
}

}  // namespace hybridgnn
