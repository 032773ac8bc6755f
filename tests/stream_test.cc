// Streaming-ingest subsystem tests: delta-log round-trips in both formats,
// corruption rejection (mirroring checkpoint_corruption_test.cc's contract
// that every bad file comes back as a clean Status), overlay equivalence
// against a rebuilt CSR graph, dirty-frontier expansion, and the
// incremental refresher's core guarantees — streamed edges score higher
// after a refresh, rows past walk reach keep their exact bits, the step's
// output is pinned bit for bit, and a non-finite step never publishes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eval/metrics.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/embedding_store.h"
#include "serve/topk.h"
#include "stream/delta_log.h"
#include "stream/live_store.h"
#include "stream/overlay.h"
#include "stream/refresher.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Base fixture graph: users 0..5 and items 6..11 under relations
/// view / buy. Nodes 4, 5, 10, 11 form a component disconnected from the
/// rest — the refresher must never touch their rows when deltas land on
/// the main component.
MultiplexHeteroGraph MakeBaseGraph() {
  GraphBuilder b;
  EXPECT_TRUE(b.AddNodeType("user").ok());
  EXPECT_TRUE(b.AddNodeType("item").ok());
  EXPECT_TRUE(b.AddRelation("view").ok());
  EXPECT_TRUE(b.AddRelation("buy").ok());
  EXPECT_TRUE(b.AddNodes(0, 6).ok());
  EXPECT_TRUE(b.AddNodes(1, 6).ok());
  // Main component: users 0-3, items 6-9.
  const NodeId view_edges[][2] = {{0, 6}, {0, 7}, {1, 6}, {1, 8},
                                  {2, 7}, {2, 9}, {3, 8}, {3, 9}};
  for (const auto& e : view_edges) EXPECT_TRUE(b.AddEdge(e[0], e[1], 0).ok());
  const NodeId buy_edges[][2] = {{0, 6}, {1, 8}, {2, 9}};
  for (const auto& e : buy_edges) EXPECT_TRUE(b.AddEdge(e[0], e[1], 1).ok());
  // Island: users 4-5, items 10-11.
  EXPECT_TRUE(b.AddEdge(4, 10, 0).ok());
  EXPECT_TRUE(b.AddEdge(5, 11, 0).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

EmbeddingStore MakeStore(const MultiplexHeteroGraph& g, size_t dim,
                         uint64_t seed) {
  Rng rng(seed);
  std::vector<EmbeddingStore::TableInit> tables;
  std::vector<NodeId> identity(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) identity[v] = v;
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    EmbeddingStore::TableInit t;
    t.name = g.relation_name(r);
    t.row_to_node = identity;
    t.data = Tensor(g.num_nodes(), dim);
    for (size_t i = 0; i < t.data.size(); ++i) {
      t.data.data()[i] = rng.UniformFloat(-0.5f, 0.5f);
    }
    tables.push_back(std::move(t));
  }
  auto store = EmbeddingStore::FromTables("test", g.num_nodes(),
                                          std::move(tables));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

std::vector<GraphDelta> SampleDeltas() {
  return {
      GraphDelta::AddEdge(0, 9, 0, 100),
      GraphDelta::AddNode(1, 150),
      GraphDelta::AddEdge(2, 12, 0, 200),  // edge to the streamed-in node
      GraphDelta::AddEdge(1, 7, 1, 250),
  };
}

// ---------------------------------------------------------------- delta log

TEST(DeltaLogTest, BinaryRoundTrip) {
  const std::string path = TempPath("roundtrip.hgd");
  const std::vector<GraphDelta> deltas = SampleDeltas();
  ASSERT_TRUE(SaveDeltaLogBinary(deltas, path).ok());
  auto loaded = LoadDeltaLogBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, deltas);
}

TEST(DeltaLogTest, WriterAppendsAcrossReopens) {
  const std::string path = TempPath("append.hgd");
  fs::remove(path);
  const std::vector<GraphDelta> deltas = SampleDeltas();
  {
    DeltaLogWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.Append(deltas[0]).ok());
    ASSERT_TRUE(w.Append(deltas[1]).ok());
    ASSERT_TRUE(w.Flush().ok());
  }
  {
    // Re-open positions at the end and keeps the existing records.
    DeltaLogWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.Append(deltas[2]).ok());
    ASSERT_TRUE(w.Append(deltas[3]).ok());
  }
  auto loaded = LoadDeltaLogBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, deltas);
}

TEST(DeltaLogTest, TextRoundTripAndAutoDetect) {
  MultiplexHeteroGraph g = MakeBaseGraph();
  const std::string text_path = TempPath("roundtrip.txt");
  const std::string bin_path = TempPath("autodetect.hgd");
  const std::vector<GraphDelta> deltas = SampleDeltas();
  ASSERT_TRUE(SaveDeltaLogText(deltas, g, text_path).ok());
  auto from_text = LoadDeltaLogText(text_path, g);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  EXPECT_EQ(*from_text, deltas);

  ASSERT_TRUE(SaveDeltaLogBinary(deltas, bin_path).ok());
  auto auto_bin = LoadDeltaLog(bin_path, g);
  auto auto_text = LoadDeltaLog(text_path, g);
  ASSERT_TRUE(auto_bin.ok());
  ASSERT_TRUE(auto_text.ok());
  EXPECT_EQ(*auto_bin, deltas);
  EXPECT_EQ(*auto_text, deltas);
}

TEST(DeltaLogTest, TextRoundTripsFullTimestampRange) {
  MultiplexHeteroGraph g = MakeBaseGraph();
  const std::string path = TempPath("timestamps.txt");
  const std::vector<GraphDelta> deltas = {
      GraphDelta::AddEdge(0, 9, 0, uint64_t{1} << 63),
      GraphDelta::AddNode(0, UINT64_MAX),
      GraphDelta::AddEdge(1, 9, 0, UINT64_MAX),
  };
  ASSERT_TRUE(SaveDeltaLogText(deltas, g, path).ok());
  auto loaded = LoadDeltaLogText(path, g);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, deltas);
}

TEST(DeltaLogTest, RejectsTruncatedAndCorruptBinary) {
  const std::string good = TempPath("corrupt_base.hgd");
  ASSERT_TRUE(SaveDeltaLogBinary(SampleDeltas(), good).ok());
  const std::vector<char> bytes = ReadFile(good);
  ASSERT_EQ(bytes.size(), kDeltaLogHeaderBytes + 4 * kDeltaLogRecordBytes);

  const std::string bad = TempPath("corrupt.hgd");
  // Truncation mid-record: any record-region size not a multiple of 20.
  for (size_t cut : {1ul, 7ul, kDeltaLogRecordBytes - 1}) {
    std::vector<char> t(bytes.begin(), bytes.end() - cut);
    WriteFile(bad, t);
    auto st = LoadDeltaLogBinary(bad);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.status().message().find("truncated"), std::string::npos);
    // The appender refuses such a file too (no silent resync).
    DeltaLogWriter w;
    EXPECT_FALSE(w.Open(bad).ok());
  }
  // Header shorter than 8 bytes.
  WriteFile(bad, std::vector<char>(bytes.begin(), bytes.begin() + 3));
  EXPECT_FALSE(LoadDeltaLogBinary(bad).ok());
  // Bad magic.
  {
    std::vector<char> t = bytes;
    t[0] = 'X';
    WriteFile(bad, t);
    EXPECT_FALSE(LoadDeltaLogBinary(bad).ok());
  }
  // Foreign endianness (tag bytes swapped).
  {
    std::vector<char> t = bytes;
    std::swap(t[4], t[5]);
    WriteFile(bad, t);
    EXPECT_FALSE(LoadDeltaLogBinary(bad).ok());
  }
  // Unsupported version.
  {
    std::vector<char> t = bytes;
    t[6] = 99;
    WriteFile(bad, t);
    EXPECT_FALSE(LoadDeltaLogBinary(bad).ok());
  }
  // Unknown record kind.
  {
    std::vector<char> t = bytes;
    t[kDeltaLogHeaderBytes] = 77;
    WriteFile(bad, t);
    auto st = LoadDeltaLogBinary(bad);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.status().message().find("unknown kind"), std::string::npos);
  }
}

TEST(DeltaLogTest, TextLoaderPinpointsBadLines) {
  MultiplexHeteroGraph g = MakeBaseGraph();
  const std::string path = TempPath("bad.txt");
  struct Case {
    const char* content;
    const char* expect;
  };
  const Case cases[] = {
      {"add-edge 5 0 9 teleport\n", "unknown relation"},
      {"add-node 5 ghost\n", "unknown node type"},
      {"add-edge 5 0 9\n", "add-edge needs"},
      {"transmogrify 1 2\n", "unknown record kind"},
      {"add-edge 5 -1 9 view\n", "node id out of range"},
      // 2^32 + 1 would wrap to node 1.
      {"add-edge 5 4294967297 9 view\n", "node id out of range"},
      // A negative timestamp would wrap to 2^64 - 5.
      {"add-edge -5 0 9 view\n", "bad timestamp"},
      {"add-node -1 user\n", "bad timestamp"},
      {"add-edge 18446744073709551616 0 9 view\n", "bad timestamp"},
  };
  for (const Case& c : cases) {
    std::ofstream(path, std::ios::trunc) << "# comment\n" << c.content;
    auto st = LoadDeltaLogText(path, g);
    ASSERT_FALSE(st.ok()) << c.content;
    EXPECT_NE(st.status().message().find(c.expect), std::string::npos)
        << st.status().ToString();
    EXPECT_NE(st.status().message().find(":2:"), std::string::npos)
        << "expected line number in: " << st.status().ToString();
  }
}

TEST(DeltaLogTest, ValidateDeltasCatchesStructuralViolations) {
  // Valid: an edge may reference a node added earlier in the same batch.
  {
    std::vector<GraphDelta> ds = {GraphDelta::AddNode(0),
                                  GraphDelta::AddEdge(3, 12, 0)};
    EXPECT_TRUE(ValidateDeltas(ds, 12, 2, 2).ok());
  }
  struct Case {
    GraphDelta delta;
    const char* expect;
  };
  const Case cases[] = {
      {GraphDelta::AddEdge(0, 1, 9), "relation 9 out of range"},
      {GraphDelta::AddEdge(0, 99, 0), "endpoint out of range"},
      {GraphDelta::AddEdge(7, 7, 0), "self-loop"},
      {GraphDelta::AddNode(9), "node type 9 out of range"},
      {GraphDelta::AddNode(0, 0, /*expected_id=*/5), "expects id 5"},
  };
  for (const Case& c : cases) {
    std::vector<GraphDelta> ds = {c.delta};
    auto st = ValidateDeltas(ds, 12, 2, 2);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find(c.expect), std::string::npos)
        << st.ToString();
  }
}

// Seeded mutation fuzzer over both delta-log formats: flips, truncations,
// splices and insertions of a valid binary .hgd log and a valid text log.
// Every mutant must load to a clean Status or to a delta vector that
// ValidateDeltas either rejects with a Status or passes — and a vector it
// passes must apply to an overlay. scripts/asan_check.sh runs this under
// ASan + UBSan, which turns any overread or UB in the loaders into a hard
// failure.
TEST(DeltaLogFuzzTest, MutantsLoadToStatusOrValidDeltas) {
  MultiplexHeteroGraph g = MakeBaseGraph();
  std::vector<GraphDelta> deltas = SampleDeltas();
  deltas.push_back(GraphDelta::AddEdge(3, 12, 1, uint64_t{1} << 40));
  deltas.push_back(GraphDelta::AddNode(0, 300, /*expected_id=*/13));
  const std::string bin_path = TempPath("fuzz_base.hgd");
  const std::string text_path = TempPath("fuzz_base.txt");
  ASSERT_TRUE(SaveDeltaLogBinary(deltas, bin_path).ok());
  ASSERT_TRUE(SaveDeltaLogText(deltas, g, text_path).ok());
  const std::vector<char> pristine[] = {ReadFile(bin_path),
                                        ReadFile(text_path)};
  const std::string mutant_path = TempPath("fuzz_mutant");

  Rng rng(0xF0221);
  auto pick = [&](size_t n) {
    return static_cast<size_t>(rng.UniformUint64(n));
  };
  size_t loaded = 0, rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::vector<char>& base = pristine[trial % 2];
    std::vector<char> bytes = base;
    switch (pick(4)) {
      case 0:  // flip 1-4 bytes
        for (size_t k = 0, n = 1 + pick(4); k < n; ++k) {
          bytes[pick(bytes.size())] ^= static_cast<char>(1 + pick(255));
        }
        break;
      case 1:  // truncate
        bytes.resize(pick(bytes.size()));
        break;
      case 2: {  // splice a chunk of either log over a random position
        const std::vector<char>& donor = pristine[pick(2)];
        const size_t from = pick(donor.size());
        const size_t len =
            1 + pick(std::min<size_t>(40, donor.size() - from));
        const size_t at = pick(bytes.size());
        bytes.resize(std::max(bytes.size(), at + len));
        std::copy(donor.begin() + static_cast<long>(from),
                  donor.begin() + static_cast<long>(from + len),
                  bytes.begin() + static_cast<long>(at));
        break;
      }
      default: {  // insert random bytes
        const size_t at = pick(bytes.size() + 1);
        std::vector<char> junk(1 + pick(24));
        for (char& c : junk) c = static_cast<char>(pick(256));
        bytes.insert(bytes.begin() + static_cast<long>(at), junk.begin(),
                     junk.end());
        break;
      }
    }
    WriteFile(mutant_path, bytes);
    // The text parser also sees the binary mutants' bytes.
    for (const auto& result :
         {LoadDeltaLog(mutant_path, g), LoadDeltaLogText(mutant_path, g)}) {
      if (!result.ok()) {
        ++rejected;
        continue;
      }
      ++loaded;
      Status valid = ValidateDeltas(*result, g.num_nodes(),
                                    g.num_relations(), g.num_node_types());
      if (!valid.ok()) continue;
      DynamicGraphOverlay overlay(&g);
      EXPECT_TRUE(overlay.Apply(*result).ok())
          << "validated deltas failed to apply (trial " << trial << ")";
    }
  }
  // Both outcomes occur, so the mutations reach past the first check.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

// -------------------------------------------------------------- edge filter

TEST(DeltaEdgeFilterTest, OutOfRangeRelationIsDroppedAndReported) {
  DeltaEdgeFilter filter(2);
  EXPECT_TRUE(filter.AddEdge(0, 6, 0));
  EXPECT_EQ(filter.num_edges(), 1u);

  // A relation id at or past the filter's relation space cannot be honored.
  // Regression: this used to index past extra_ instead of refusing; now the
  // edge is rejected, counted, and the filter state is left untouched.
  EXPECT_FALSE(filter.AddEdge(0, 7, 2));
  EXPECT_FALSE(filter.AddEdge(1, 8, 99));
  EXPECT_EQ(filter.num_dropped(), 2u);
  EXPECT_EQ(filter.num_edges(), 1u);
  EXPECT_TRUE(filter.Excluded(0, 1).empty());
  EXPECT_TRUE(filter.Excluded(1, 1).empty());

  // The accepted edge is visible from both endpoints.
  ASSERT_EQ(filter.Excluded(0, 0).size(), 1u);
  EXPECT_EQ(filter.Excluded(0, 0)[0], 6u);
  ASSERT_EQ(filter.Excluded(6, 0).size(), 1u);
  EXPECT_EQ(filter.Excluded(6, 0)[0], 0u);
}

TEST(DeltaEdgeFilterTest, CountsEdgesSymmetrically) {
  DeltaEdgeFilter filter(1);
  // A duplicate insert is still a success (the exclusion holds) but must
  // not inflate num_edges.
  EXPECT_TRUE(filter.AddEdge(0, 6, 0));
  EXPECT_TRUE(filter.AddEdge(0, 6, 0));
  EXPECT_EQ(filter.num_edges(), 1u);
  // The reverse direction of an existing edge is the same edge.
  EXPECT_TRUE(filter.AddEdge(6, 0, 0));
  EXPECT_EQ(filter.num_edges(), 1u);
  // A self-loop inserts one adjacency entry yet counts as one edge.
  EXPECT_TRUE(filter.AddEdge(3, 3, 0));
  EXPECT_EQ(filter.num_edges(), 2u);
  ASSERT_EQ(filter.Excluded(3, 0).size(), 1u);
  EXPECT_EQ(filter.Excluded(3, 0)[0], 3u);
  EXPECT_EQ(filter.num_dropped(), 0u);
}

// ------------------------------------------------------------------ overlay

TEST(OverlayTest, MatchesCompactedGraphOnEveryRead) {
  MultiplexHeteroGraph base = MakeBaseGraph();
  DynamicGraphOverlay overlay(&base);
  auto applied = overlay.Apply(SampleDeltas());
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->edges_added, 3u);
  EXPECT_EQ(applied->nodes_added, 1u);
  EXPECT_EQ(applied->duplicates_ignored, 0u);

  auto compacted = overlay.Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  ASSERT_EQ(overlay.num_nodes(), compacted->num_nodes());
  EXPECT_EQ(overlay.num_edges(), compacted->num_edges());
  EXPECT_EQ(overlay.node_type(12), 1);

  std::vector<RelationId> scratch;
  for (NodeId v = 0; v < overlay.num_nodes(); ++v) {
    EXPECT_EQ(overlay.node_type(v), compacted->node_type(v));
    EXPECT_EQ(overlay.TotalDegree(v), compacted->TotalDegree(v));
    // ActiveRelations agree as sets (both are sorted).
    auto overlay_active = overlay.ActiveRelations(v, scratch);
    auto compact_active = compacted->ActiveRelations(v);
    ASSERT_EQ(overlay_active.size(), compact_active.size()) << "node " << v;
    EXPECT_TRUE(std::equal(overlay_active.begin(), overlay_active.end(),
                           compact_active.begin()));
    for (RelationId r = 0; r < overlay.num_relations(); ++r) {
      ASSERT_EQ(overlay.Degree(v, r), compacted->Degree(v, r))
          << "node " << v << " rel " << r;
      // The two-span view and the CSR agree as multisets (each side
      // sorted; overlay concatenates two sorted runs).
      std::vector<NodeId> from_overlay;
      overlay.Neighbors(v, r).ForEach(
          [&](NodeId u) { from_overlay.push_back(u); });
      std::sort(from_overlay.begin(), from_overlay.end());
      auto from_compact = compacted->Neighbors(v, r);
      EXPECT_TRUE(std::equal(from_overlay.begin(), from_overlay.end(),
                             from_compact.begin(), from_compact.end()));
      for (NodeId u : from_overlay) {
        EXPECT_TRUE(overlay.HasEdge(v, u, r));
      }
    }
  }
  EXPECT_FALSE(overlay.HasEdge(0, 5, 0));
  EXPECT_FALSE(overlay.HasEdge(0, 9, 1));  // added under view, not buy

  // A second overlay anchored on the compacted graph starts clean.
  DynamicGraphOverlay next(&*compacted);
  EXPECT_EQ(next.num_delta_edges(), 0u);
  EXPECT_EQ(next.num_edges(), overlay.num_edges());
}

TEST(OverlayTest, DuplicatesCountedNotApplied) {
  MultiplexHeteroGraph base = MakeBaseGraph();
  DynamicGraphOverlay overlay(&base);
  const std::vector<GraphDelta> batch = {
      GraphDelta::AddEdge(0, 6, 0),   // already in base
      GraphDelta::AddEdge(0, 9, 0),   // fresh
      GraphDelta::AddEdge(9, 0, 0),   // duplicate of the fresh one, flipped
  };
  auto applied = overlay.Apply(batch);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->edges_added, 1u);
  EXPECT_EQ(applied->duplicates_ignored, 2u);
  EXPECT_EQ(applied->touched, (std::vector<NodeId>{0, 9}));
  EXPECT_EQ(overlay.Degree(0, 0), base.Degree(0, 0) + 1);
}

TEST(OverlayTest, RejectsInvalidBatchAtomically) {
  MultiplexHeteroGraph base = MakeBaseGraph();
  DynamicGraphOverlay overlay(&base);
  const std::vector<GraphDelta> batch = {
      GraphDelta::AddEdge(0, 9, 0),    // valid...
      GraphDelta::AddEdge(0, 99, 0),   // ...but this one is out of range
  };
  EXPECT_FALSE(overlay.Apply(batch).ok());
  // Nothing from the batch landed — validation precedes mutation.
  EXPECT_EQ(overlay.num_delta_edges(), 0u);
  EXPECT_FALSE(overlay.HasEdge(0, 9, 0));
}

// ---------------------------------------------------------------- refresher

std::unique_ptr<LiveEmbeddingStore> MakeLive(const MultiplexHeteroGraph& g,
                                             const EmbeddingStore& store) {
  auto live = LiveEmbeddingStore::Create(store, &g, TopKOptions{});
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  return std::move(live).value();
}

TEST(RefresherTest, DirtyFrontierExpandsByHops) {
  GraphBuilder b;
  ASSERT_TRUE(b.AddNodeType("n").ok());
  ASSERT_TRUE(b.AddRelation("r").ok());
  ASSERT_TRUE(b.AddNodes(0, 6).ok());
  for (NodeId v = 0; v + 1 < 6; ++v) {
    ASSERT_TRUE(b.AddEdge(v, v + 1, 0).ok());  // path 0-1-2-3-4-5
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  DynamicGraphOverlay overlay(&*g);
  EmbeddingStore store = MakeStore(*g, 4, 7);
  auto live = MakeLive(*g, store);
  IncrementalRefresher refresher(&overlay, live.get(), RefreshOptions{});

  const std::vector<NodeId> touched = {2};
  EXPECT_EQ(refresher.DirtyFrontier(touched, 0),
            (std::vector<NodeId>{2}));
  EXPECT_EQ(refresher.DirtyFrontier(touched, 1),
            (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(refresher.DirtyFrontier(touched, 2),
            (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(refresher.DirtyFrontier(touched, 9),
            (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
}

TEST(RefresherTest, StreamedEdgesScoreHigherAfterRefresh) {
  MultiplexHeteroGraph g = MakeBaseGraph();
  EmbeddingStore store = MakeStore(g, 16, 11);
  DynamicGraphOverlay overlay(&g);
  auto live = MakeLive(g, store);
  RefreshOptions opts;
  opts.sgd_rounds = 6;
  opts.learning_rate = 0.08f;
  IncrementalRefresher refresher(&overlay, live.get(), opts);

  // New interactions inside the main component.
  const std::vector<GraphDelta> batch = {
      GraphDelta::AddEdge(0, 9, 0, 1),
      GraphDelta::AddEdge(1, 7, 0, 2),
      GraphDelta::AddEdge(3, 6, 0, 3),
  };
  auto dot = [&](const EmbeddingStore& s, NodeId a, NodeId b) {
    const float* x = s.Lookup(a, 0);
    const float* y = s.Lookup(b, 0);
    EXPECT_NE(x, nullptr);
    EXPECT_NE(y, nullptr);
    double acc = 0.0;
    for (size_t j = 0; j < s.dim(); ++j) acc += x[j] * y[j];
    return acc;
  };
  // Non-edges (under view) used as shared negatives.
  const NodeId negs[][2] = {{0, 8}, {2, 6}, {3, 7}, {1, 9}};
  auto auc = [&](const EmbeddingStore& s) {
    std::vector<double> pos, neg;
    for (const GraphDelta& d : batch) pos.push_back(dot(s, d.src, d.dst));
    for (const auto& n : negs) neg.push_back(dot(s, n[0], n[1]));
    return RocAuc(pos, neg);
  };

  auto before = live->Acquire();
  const double stale_auc = auc(before->store);
  auto stats = refresher.IngestBatch(batch);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->edges_added, 3u);
  EXPECT_GT(stats->pairs_trained, 0u);
  auto after = live->Acquire();
  ASSERT_NE(before->sequence, after->sequence);
  const double fresh_auc = auc(after->store);
  EXPECT_GT(fresh_auc, stale_auc)
      << "refresh must rank streamed edges above non-edges";
  EXPECT_GT(fresh_auc, 0.95);
}

TEST(RefresherTest, RowsOutsideDirtyRegionKeepTheirBits) {
  MultiplexHeteroGraph g = MakeBaseGraph();
  EmbeddingStore store = MakeStore(g, 8, 13);
  DynamicGraphOverlay overlay(&g);
  auto live = MakeLive(g, store);
  IncrementalRefresher refresher(&overlay, live.get(), RefreshOptions{});

  // Island rows (nodes 4, 5, 10, 11) before a main-component batch.
  const NodeId island[] = {4, 5, 10, 11};
  std::vector<std::vector<float>> saved;
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    for (NodeId v : island) {
      const float* row = live->Row(r, v);
      ASSERT_NE(row, nullptr);
      saved.emplace_back(row, row + live->dim());
    }
  }
  auto stats = refresher.IngestBatch(std::vector<GraphDelta>{
      GraphDelta::AddEdge(0, 9, 0), GraphDelta::AddEdge(1, 7, 1)});
  ASSERT_TRUE(stats.ok());
  size_t idx = 0;
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    for (NodeId v : island) {
      const float* row = live->Row(r, v);
      EXPECT_EQ(std::memcmp(row, saved[idx].data(),
                            live->dim() * sizeof(float)),
                0)
          << "island row (" << v << ", rel " << r << ") changed";
      ++idx;
    }
  }
}

/// Fnv1a64 over every staging row, table by table in row order.
uint64_t StagingHash(const LiveEmbeddingStore& live) {
  std::vector<float> rows;
  for (RelationId r = 0; r < live.num_relations(); ++r) {
    for (size_t i = 0; i < live.NumRows(r); ++i) {
      const float* row = live.Row(r, live.RowNode(r, i));
      rows.insert(rows.end(), row, row + live.dim());
    }
  }
  return Fnv1a64(rows.data(), rows.size() * sizeof(float));
}

// Pins the refresher's exact output: three default-option batches on a
// small connected graph (one streamed-in node, both relations) must leave
// these staging bits and this pair count. A change to the SGNS step that
// is meant to be a pure refactor must pass this without re-pinning.
TEST(RefresherTest, DefaultRefreshMatchesGolden) {
  kernels::ScopedBackend scalar(kernels::Backend::kScalar);
  GraphBuilder b;
  ASSERT_TRUE(b.AddNodeType("user").ok());
  ASSERT_TRUE(b.AddNodeType("item").ok());
  ASSERT_TRUE(b.AddRelation("view").ok());
  ASSERT_TRUE(b.AddRelation("buy").ok());
  ASSERT_TRUE(b.AddNodes(0, 6).ok());
  ASSERT_TRUE(b.AddNodes(1, 6).ok());
  // User u views items 6+u and 6+(u+1)%6 (one 12-cycle); buys 6+u for
  // even u.
  for (NodeId u = 0; u < 6; ++u) {
    ASSERT_TRUE(b.AddEdge(u, 6 + u, 0).ok());
    ASSERT_TRUE(b.AddEdge(u, 6 + (u + 1) % 6, 0).ok());
    if (u % 2 == 0) {
      ASSERT_TRUE(b.AddEdge(u, 6 + u, 1).ok());
    }
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EmbeddingStore store = MakeStore(*g, 8, 29);
  DynamicGraphOverlay overlay(&*g);
  auto live = MakeLive(*g, store);
  RefreshOptions opts;
  opts.seed = 31;
  IncrementalRefresher refresher(&overlay, live.get(), opts);

  const std::vector<std::vector<GraphDelta>> batches = {
      {GraphDelta::AddEdge(0, 9, 0, 1), GraphDelta::AddEdge(3, 7, 1, 2)},
      {GraphDelta::AddNode(1, 3), GraphDelta::AddEdge(1, 12, 0, 4),
       GraphDelta::AddEdge(4, 12, 0, 5)},
      {GraphDelta::AddEdge(5, 8, 1, 6), GraphDelta::AddEdge(2, 11, 0, 7)},
  };
  size_t pairs = 0;
  for (const auto& batch : batches) {
    auto stats = refresher.IngestBatch(batch);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    pairs += stats->pairs_trained;
  }
  EXPECT_EQ(pairs, 5568u);
  EXPECT_EQ(StagingHash(*live), 0x7fc494b242c26ba6ull)
      << std::hex << StagingHash(*live);
}

// The write set of a refresh is bounded by walk reach, not by the dirty
// frontier: walks from frontier roots take walk_length - 1 steps and both
// pair endpoints move. On a path graph with default options (k_hops 1,
// walk_length 6) rows within 1 + 5 hops of a touched node may change;
// rows beyond keep their bits.
TEST(RefresherTest, WriteSetStopsAtWalkReach) {
  GraphBuilder b;
  ASSERT_TRUE(b.AddNodeType("n").ok());
  ASSERT_TRUE(b.AddRelation("r").ok());
  constexpr NodeId kNodes = 20;
  ASSERT_TRUE(b.AddNodes(0, kNodes).ok());
  for (NodeId v = 0; v + 1 < kNodes; ++v) {
    ASSERT_TRUE(b.AddEdge(v, v + 1, 0).ok());  // path 0-1-...-19
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EmbeddingStore store = MakeStore(*g, 8, 19);
  DynamicGraphOverlay overlay(&*g);
  auto live = MakeLive(*g, store);
  const RefreshOptions opts;
  IncrementalRefresher refresher(&overlay, live.get(), opts);
  std::vector<std::vector<float>> before;
  for (NodeId v = 0; v < kNodes; ++v) {
    before.emplace_back(live->Row(0, v), live->Row(0, v) + live->dim());
  }

  // Touches {0, 2}; after the shortcut, node v >= 2 sits v - 2 hops out.
  ASSERT_TRUE(refresher
                  .IngestBatch(std::vector<GraphDelta>{
                      GraphDelta::AddEdge(0, 2, 0)})
                  .ok());
  const std::vector<NodeId> touched = {0, 2};
  const std::vector<NodeId> dirty =
      refresher.DirtyFrontier(touched, opts.k_hops);
  const NodeId reach = 2 + static_cast<NodeId>(opts.k_hops +
                                               opts.walk_length - 1);
  auto changed = [&](NodeId v) {
    return std::memcmp(live->Row(0, v), before[v].data(),
                       live->dim() * sizeof(float)) != 0;
  };
  bool changed_outside_frontier = false;
  for (NodeId v = 0; v < kNodes; ++v) {
    if (v > reach) {
      EXPECT_FALSE(changed(v)) << "row " << v << " is past walk reach";
    } else if (!std::binary_search(dirty.begin(), dirty.end(), v) &&
               changed(v)) {
      changed_outside_frontier = true;
    }
  }
  EXPECT_TRUE(changed_outside_frontier)
      << "walks should carry updates past the dirty frontier";
}

// A learning rate that is not positive and finite is refused before the
// overlay or staging is touched.
TEST(RefresherTest, RejectsBadLearningRateBeforeMutation) {
  for (float lr : {std::numeric_limits<float>::quiet_NaN(), -1.0f, 0.0f,
                   std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE(lr);
    MultiplexHeteroGraph g = MakeBaseGraph();
    EmbeddingStore store = MakeStore(g, 8, 37);
    DynamicGraphOverlay overlay(&g);
    auto live = MakeLive(g, store);
    const uint64_t staging = StagingHash(*live);
    RefreshOptions opts;
    opts.learning_rate = lr;
    IncrementalRefresher refresher(&overlay, live.get(), opts);
    auto stats = refresher.IngestBatch(
        std::vector<GraphDelta>{GraphDelta::AddEdge(0, 9, 0, 1)});
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(overlay.num_delta_edges(), 0u);
    EXPECT_EQ(live->version(), 1u);
    EXPECT_EQ(StagingHash(*live), staging);
  }
}

// A step that blows rows up (lr * minibatch overflows to inf at FLT_MAX)
// fails the batch, bumps core/nonfinite_loss and publishes nothing: the
// front snapshot stays the last good version.
TEST(RefresherTest, NonFiniteRowsBlockPublish) {
  MultiplexHeteroGraph g = MakeBaseGraph();
  EmbeddingStore store = MakeStore(g, 8, 41);
  DynamicGraphOverlay overlay(&g);
  auto live = MakeLive(g, store);
  RefreshOptions opts;
  opts.learning_rate = std::numeric_limits<float>::max();
  IncrementalRefresher refresher(&overlay, live.get(), opts);
  obs::Counter& nonfinite =
      obs::GlobalRegistry().GetCounter("core/nonfinite_loss");
  const uint64_t before = nonfinite.value();
  auto front = live->Acquire();

  auto stats = refresher.IngestBatch(std::vector<GraphDelta>{
      GraphDelta::AddEdge(0, 9, 0, 1), GraphDelta::AddEdge(1, 7, 1, 2)});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(nonfinite.value(), before + 1);
  EXPECT_EQ(live->version(), 1u);
  EXPECT_EQ(live->Acquire(), front);
  // The served rows are still the checkpoint's.
  const float* served = live->Acquire()->store.Lookup(0, 0);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(std::memcmp(served, store.Lookup(0, 0),
                        store.dim() * sizeof(float)),
            0);
}

// The staging rows of a failed batch stay non-finite, so no later batch
// may publish: not a retry of the same batch (its edges are duplicates by
// then, so it trains nothing and would publish staging as is) and not a
// fresh one.
TEST(RefresherTest, FailedBatchPoisonsLaterBatches) {
  MultiplexHeteroGraph g = MakeBaseGraph();
  EmbeddingStore store = MakeStore(g, 8, 43);
  DynamicGraphOverlay overlay(&g);
  auto live = MakeLive(g, store);
  RefreshOptions opts;
  opts.learning_rate = std::numeric_limits<float>::max();
  IncrementalRefresher refresher(&overlay, live.get(), opts);
  const std::vector<GraphDelta> batch = {GraphDelta::AddEdge(0, 9, 0, 1),
                                         GraphDelta::AddEdge(1, 7, 1, 2)};
  auto first = refresher.IngestBatch(batch);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kFailedPrecondition);
  const size_t overlay_edges = overlay.num_delta_edges();
  for (const auto& next :
       {batch, std::vector<GraphDelta>{GraphDelta::AddEdge(2, 6, 0, 3)}}) {
    auto again = refresher.IngestBatch(next);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status(), first.status());
    EXPECT_EQ(overlay.num_delta_edges(), overlay_edges);
    EXPECT_EQ(live->version(), 1u);
  }
  // Every served value is still finite.
  const auto front = live->Acquire();
  const EmbeddingStore& served = front->store;
  for (RelationId r = 0; r < served.num_relations(); ++r) {
    const auto table = served.Table(r);
    EXPECT_TRUE(AllFinite(table.data(), table.size())) << "relation " << r;
  }
}

TEST(RefresherTest, StreamedInNodeBecomesServable) {
  MultiplexHeteroGraph g = MakeBaseGraph();
  EmbeddingStore store = MakeStore(g, 8, 17);
  DynamicGraphOverlay overlay(&g);
  auto live = MakeLive(g, store);
  IncrementalRefresher refresher(&overlay, live.get(), RefreshOptions{});

  auto stats = refresher.IngestBatch(std::vector<GraphDelta>{
      GraphDelta::AddNode(1, 1),           // item node 12
      GraphDelta::AddEdge(0, 12, 0, 2),
      GraphDelta::AddEdge(1, 12, 0, 3),
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->nodes_added, 1u);
  auto version = live->Acquire();
  const float* row = version->store.Lookup(12, 0);
  ASSERT_NE(row, nullptr);
  double norm = 0.0;
  for (size_t j = 0; j < version->store.dim(); ++j) norm += row[j] * row[j];
  EXPECT_GT(norm, 0.0) << "new node must be trained, not left at zero";
}

}  // namespace
}  // namespace hybridgnn
