#include "stream/delta_log.h"

#include <cstring>
#include <fstream>

#include "common/string_util.h"

namespace hybridgnn {

namespace {

struct RecordBytes {
  uint8_t kind;
  uint8_t reserved;
  uint16_t rel_or_type;
  uint32_t src;
  uint32_t dst;
  // The 64-bit timestamp is split so the record stays 4-byte aligned and
  // exactly 20 bytes — a whole uint64_t would pad the struct to 24.
  uint32_t ts_lo;
  uint32_t ts_hi;
};
static_assert(sizeof(RecordBytes) == kDeltaLogRecordBytes,
              "delta record layout must stay 20 bytes");

RecordBytes Encode(const GraphDelta& d) {
  RecordBytes r{};
  r.kind = static_cast<uint8_t>(d.kind);
  r.reserved = 0;
  if (d.kind == DeltaKind::kAddNode) {
    r.rel_or_type = d.node_type;
    r.src = d.src;
    r.dst = kInvalidNode;
  } else {
    r.rel_or_type = d.rel;
    r.src = d.src;
    r.dst = d.dst;
  }
  r.ts_lo = static_cast<uint32_t>(d.timestamp & 0xFFFFFFFFu);
  r.ts_hi = static_cast<uint32_t>(d.timestamp >> 32);
  return r;
}

StatusOr<GraphDelta> Decode(const RecordBytes& r, size_t index) {
  GraphDelta d;
  switch (r.kind) {
    case static_cast<uint8_t>(DeltaKind::kAddNode):
      d.kind = DeltaKind::kAddNode;
      d.node_type = static_cast<NodeTypeId>(r.rel_or_type);
      d.src = r.src;
      break;
    case static_cast<uint8_t>(DeltaKind::kAddEdge):
      d.kind = DeltaKind::kAddEdge;
      d.rel = static_cast<RelationId>(r.rel_or_type);
      d.src = r.src;
      d.dst = r.dst;
      break;
    default:
      return Status::IoError(
          StrFormat("delta record %zu: unknown kind %u", index,
                    static_cast<unsigned>(r.kind)));
  }
  d.timestamp = (static_cast<uint64_t>(r.ts_hi) << 32) | r.ts_lo;
  return d;
}

struct HeaderBytes {
  char magic[4];
  uint16_t endian;
  uint16_t version;
};
static_assert(sizeof(HeaderBytes) == kDeltaLogHeaderBytes);

HeaderBytes MakeHeader() {
  HeaderBytes h{};
  std::memcpy(h.magic, kDeltaLogMagic, 4);
  h.endian = kDeltaLogEndianTag;
  h.version = kDeltaLogVersion;
  return h;
}

Status CheckHeader(const HeaderBytes& h, const std::string& path) {
  if (std::memcmp(h.magic, kDeltaLogMagic, 4) != 0) {
    return Status::IoError("not a delta log (bad magic): " + path);
  }
  if (h.endian != kDeltaLogEndianTag) {
    return Status::IoError("delta log written on foreign-endian host: " +
                              path);
  }
  if (h.version != kDeltaLogVersion) {
    return Status::IoError(
        StrFormat("delta log version %u unsupported (want %u): %s",
                  static_cast<unsigned>(h.version),
                  static_cast<unsigned>(kDeltaLogVersion), path.c_str()));
  }
  return Status::OK();
}

}  // namespace

DeltaLogWriter::~DeltaLogWriter() { Close(); }

Status DeltaLogWriter::Open(const std::string& path) {
  Close();
  // Append mode creates the file when absent; an existing log must carry a
  // valid header so we never silently append records to a foreign file.
  std::FILE* probe = std::fopen(path.c_str(), "rb");
  bool fresh = true;
  if (probe != nullptr) {
    HeaderBytes h{};
    const size_t got = std::fread(&h, 1, sizeof(h), probe);
    std::fseek(probe, 0, SEEK_END);
    const long size = std::ftell(probe);
    std::fclose(probe);
    if (size > 0) {
      if (got != sizeof(h)) {
        return Status::IoError("delta log shorter than its header: " +
                                  path);
      }
      HYBRIDGNN_RETURN_IF_ERROR(CheckHeader(h, path));
      if ((static_cast<size_t>(size) - kDeltaLogHeaderBytes) %
              kDeltaLogRecordBytes !=
          0) {
        return Status::IoError(
            "delta log truncated mid-record; refusing to append: " + path);
      }
      fresh = false;
    }
  }
  file_ = std::fopen(path.c_str(), fresh ? "wb" : "ab");
  if (file_ == nullptr) {
    return Status::IoError("cannot open delta log for append: " + path);
  }
  path_ = path;
  if (fresh) {
    const HeaderBytes h = MakeHeader();
    if (std::fwrite(&h, 1, sizeof(h), file_) != sizeof(h)) {
      Close();
      return Status::IoError("cannot write delta log header: " + path);
    }
  }
  return Status::OK();
}

Status DeltaLogWriter::Append(const GraphDelta& delta) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("delta log writer is not open");
  }
  const RecordBytes r = Encode(delta);
  if (std::fwrite(&r, 1, sizeof(r), file_) != sizeof(r)) {
    return Status::IoError("delta log append failed: " + path_);
  }
  return Status::OK();
}

Status DeltaLogWriter::Flush() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("delta log writer is not open");
  }
  if (std::fflush(file_) != 0) {
    return Status::IoError("delta log flush failed: " + path_);
  }
  return Status::OK();
}

void DeltaLogWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

StatusOr<std::vector<GraphDelta>> LoadDeltaLogBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open delta log: " + path);
  HeaderBytes h{};
  if (!in.read(reinterpret_cast<char*>(&h), sizeof(h))) {
    return Status::IoError("delta log shorter than its header: " + path);
  }
  HYBRIDGNN_RETURN_IF_ERROR(CheckHeader(h, path));
  std::vector<GraphDelta> deltas;
  RecordBytes r{};
  size_t index = 0;
  while (in.read(reinterpret_cast<char*>(&r), sizeof(r))) {
    HYBRIDGNN_ASSIGN_OR_RETURN(GraphDelta d, Decode(r, index));
    deltas.push_back(d);
    ++index;
  }
  if (in.gcount() != 0) {
    return Status::IoError(
        StrFormat("delta log truncated mid-record after %zu records "
                  "(%zu stray bytes): %s",
                  index, static_cast<size_t>(in.gcount()), path.c_str()));
  }
  return deltas;
}

Status SaveDeltaLogBinary(std::span<const GraphDelta> deltas,
                          const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  const HeaderBytes h = MakeHeader();
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  for (const GraphDelta& d : deltas) {
    const RecordBytes r = Encode(d);
    out.write(reinterpret_cast<const char*>(&r), sizeof(r));
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

StatusOr<std::vector<GraphDelta>> LoadDeltaLogText(
    const std::string& path, const MultiplexHeteroGraph& base) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open delta log: " + path);
  std::vector<GraphDelta> deltas;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view text = StripWhitespace(line);
    if (text.empty() || text[0] == '#') continue;
    std::vector<std::string> fields = Split(std::string(text), ' ');
    auto fail = [&](const std::string& why) -> Status {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: %s", path.c_str(), lineno, why.c_str()));
    };
    if (fields[0] == "add-node") {
      if (fields.size() != 3) {
        return fail("add-node needs <timestamp> <type-name>");
      }
      // Timestamps are uint64_t end to end: a signed parse would reject the
      // upper half and wrap a negative one.
      auto ts = ParseUint64(fields[1]);
      if (!ts.ok()) return fail("bad timestamp: " + ts.status().message());
      const NodeTypeId type = base.FindNodeType(fields[2]);
      if (type == kInvalidNodeType) {
        return fail("unknown node type: " + fields[2]);
      }
      deltas.push_back(GraphDelta::AddNode(type, *ts));
    } else if (fields[0] == "add-edge") {
      if (fields.size() != 5) {
        return fail("add-edge needs <timestamp> <src> <dst> <relation-name>");
      }
      auto ts = ParseUint64(fields[1]);
      if (!ts.ok()) return fail("bad timestamp: " + ts.status().message());
      HYBRIDGNN_ASSIGN_OR_RETURN(int64_t src, ParseInt64(fields[2]));
      HYBRIDGNN_ASSIGN_OR_RETURN(int64_t dst, ParseInt64(fields[3]));
      // kInvalidNode (2^32 - 1) and above would wrap to another node id.
      if (src < 0 || dst < 0 || src >= int64_t{kInvalidNode} ||
          dst >= int64_t{kInvalidNode}) {
        return fail("node id out of range");
      }
      RelationId rel = base.FindRelation(fields[4]);
      if (rel == kInvalidRelation) {
        return fail("unknown relation: " + fields[4]);
      }
      deltas.push_back(GraphDelta::AddEdge(static_cast<NodeId>(src),
                                           static_cast<NodeId>(dst), rel,
                                           *ts));
    } else {
      return fail("unknown record kind: " + fields[0]);
    }
  }
  return deltas;
}

Status SaveDeltaLogText(std::span<const GraphDelta> deltas,
                        const MultiplexHeteroGraph& base,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << "# hybridgnn graph delta log v1\n";
  for (size_t i = 0; i < deltas.size(); ++i) {
    const GraphDelta& d = deltas[i];
    if (d.kind == DeltaKind::kAddNode) {
      if (d.node_type >= base.num_node_types()) {
        return Status::InvalidArgument(
            StrFormat("delta %zu: node type %u outside base schema", i,
                      static_cast<unsigned>(d.node_type)));
      }
      out << "add-node " << d.timestamp << ' '
          << base.node_type_name(d.node_type) << '\n';
    } else {
      if (d.rel >= base.num_relations()) {
        return Status::InvalidArgument(
            StrFormat("delta %zu: relation %u outside base schema", i,
                      static_cast<unsigned>(d.rel)));
      }
      out << "add-edge " << d.timestamp << ' ' << d.src << ' ' << d.dst << ' '
          << base.relation_name(d.rel) << '\n';
    }
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

StatusOr<std::vector<GraphDelta>> LoadDeltaLog(
    const std::string& path, const MultiplexHeteroGraph& base) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) return Status::IoError("cannot open delta log: " + path);
  char magic[4] = {0, 0, 0, 0};
  probe.read(magic, 4);
  probe.close();
  if (std::memcmp(magic, kDeltaLogMagic, 4) == 0) {
    return LoadDeltaLogBinary(path);
  }
  return LoadDeltaLogText(path, base);
}

Status ValidateDeltas(std::span<const GraphDelta> deltas, size_t num_nodes,
                      size_t num_relations, size_t num_node_types) {
  size_t nodes = num_nodes;
  for (size_t i = 0; i < deltas.size(); ++i) {
    const GraphDelta& d = deltas[i];
    if (d.kind == DeltaKind::kAddNode) {
      if (d.node_type >= num_node_types) {
        return Status::InvalidArgument(
            StrFormat("delta %zu: node type %u out of range (types=%zu)", i,
                      static_cast<unsigned>(d.node_type), num_node_types));
      }
      if (d.src != kInvalidNode && d.src != nodes) {
        return Status::InvalidArgument(
            StrFormat("delta %zu: add-node expects id %u but next id is %zu",
                      i, d.src, nodes));
      }
      ++nodes;
    } else if (d.kind == DeltaKind::kAddEdge) {
      if (d.rel >= num_relations) {
        return Status::InvalidArgument(
            StrFormat("delta %zu: relation %u out of range (relations=%zu)",
                      i, static_cast<unsigned>(d.rel), num_relations));
      }
      if (d.src >= nodes || d.dst >= nodes) {
        return Status::InvalidArgument(
            StrFormat("delta %zu: edge endpoint out of range: %u-%u "
                      "(nodes=%zu)",
                      i, d.src, d.dst, nodes));
      }
      if (d.src == d.dst) {
        return Status::InvalidArgument(
            StrFormat("delta %zu: self-loop on node %u", i, d.src));
      }
    } else {
      return Status::InvalidArgument(
          StrFormat("delta %zu: unknown kind %u", i,
                    static_cast<unsigned>(d.kind)));
    }
  }
  return Status::OK();
}

}  // namespace hybridgnn
