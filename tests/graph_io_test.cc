#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph_io.h"
#include "test_util.h"

namespace hybridgnn {
namespace {

using testing::SmallBipartite;

class GraphIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "/graph_io_test.txt";
};

TEST_F(GraphIoTest, RoundTripPreservesEverything) {
  MultiplexHeteroGraph g = SmallBipartite();
  ASSERT_TRUE(SaveGraph(g, path_).ok());
  auto loaded = LoadGraph(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  EXPECT_EQ(loaded->num_node_types(), g.num_node_types());
  EXPECT_EQ(loaded->num_relations(), g.num_relations());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(loaded->node_type(v), g.node_type(v));
  }
  for (const auto& e : g.edges()) {
    EXPECT_TRUE(loaded->HasEdge(e.src, e.dst, e.rel));
  }
  EXPECT_EQ(loaded->relation_name(1), "buy");
}

TEST_F(GraphIoTest, LoadMissingFileFails) {
  auto loaded = LoadGraph("/nonexistent/path/graph.txt");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, RejectsUnknownRecordKind) {
  std::ofstream out(path_);
  out << "node_types user\nrelations r\nbogus line here\n";
  out.close();
  EXPECT_FALSE(LoadGraph(path_).ok());
}

TEST_F(GraphIoTest, RejectsNonDenseNodeIds) {
  std::ofstream out(path_);
  out << "node_types user\nrelations r\nnode 5 user\n";
  out.close();
  EXPECT_FALSE(LoadGraph(path_).ok());
}

TEST_F(GraphIoTest, RejectsUnknownTypeOrRelation) {
  {
    std::ofstream out(path_);
    out << "node_types user\nrelations r\nnode 0 ghost\n";
  }
  EXPECT_FALSE(LoadGraph(path_).ok());
  {
    std::ofstream out(path_);
    out << "node_types user\nrelations r\nnode 0 user\nnode 1 user\n"
        << "edge 0 1 ghost\n";
  }
  EXPECT_FALSE(LoadGraph(path_).ok());
}

TEST_F(GraphIoTest, SkipsCommentsAndBlankLines) {
  std::ofstream out(path_);
  out << "# comment\n\nnode_types user\nrelations r\n"
      << "node 0 user\nnode 1 user\nedge 0 1 r\n";
  out.close();
  auto loaded = LoadGraph(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_edges(), 1u);
}

TEST_F(GraphIoTest, StrictLoadPinpointsDoubledEdgeLine) {
  std::ofstream out(path_);
  out << "node_types user\nrelations r\n"
      << "node 0 user\nnode 1 user\n"
      << "edge 0 1 r\nedge 1 0 r\n";  // line 6 repeats the undirected edge
  out.close();
  // Lenient (the default) collapses the repeat, as it always has.
  auto lenient = LoadGraph(path_);
  ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
  EXPECT_EQ(lenient->num_edges(), 1u);
  // Strict rejects it with AlreadyExists and the offending line number.
  auto strict = LoadGraph(path_, LoadStrictness::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kAlreadyExists)
      << strict.status().ToString();
  EXPECT_NE(strict.status().message().find(":6:"), std::string::npos)
      << strict.status().ToString();
}

TEST_F(GraphIoTest, SaveToUnwritablePathFails) {
  MultiplexHeteroGraph g = SmallBipartite();
  EXPECT_FALSE(SaveGraph(g, "/nonexistent/dir/out.txt").ok());
}

TEST_F(GraphIoTest, RejectsIdsPastTheNodeIdRange) {
  // 2^32 + 1 must not wrap to node 1.
  {
    std::ofstream out(path_);
    out << "node_types user\nrelations r\nnode 0 user\nnode 4294967297 user\n";
  }
  EXPECT_FALSE(LoadGraph(path_).ok());
  {
    std::ofstream out(path_);
    out << "node_types user\nrelations r\nnode 0 user\nnode 1 user\n"
        << "edge 0 4294967297 r\n";
  }
  auto wrapped = LoadGraph(path_);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), StatusCode::kInvalidArgument);
  {
    std::ofstream out(path_);
    out << "node_types user\nrelations r\nnode 0 user\nnode 1 user\n"
        << "edge -1 1 r\n";
  }
  EXPECT_FALSE(LoadGraph(path_).ok());
}

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Structural invariants every loaded graph must hold: ids in range, no
/// self-loops, per-relation adjacency that lists each edge from both ends,
/// and a strict save/load round trip that keeps every count.
void ExpectValidGraph(const MultiplexHeteroGraph& g, const std::string& path,
                      int trial) {
  SCOPED_TRACE("trial " + std::to_string(trial));
  const size_t n = g.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_LT(g.node_type(v), g.num_node_types());
  }
  for (const auto& e : g.edges()) {
    ASSERT_LT(e.src, n);
    ASSERT_LT(e.dst, n);
    ASSERT_NE(e.src, e.dst);
    ASSERT_LT(e.rel, g.num_relations());
    ASSERT_TRUE(g.HasEdge(e.src, e.dst, e.rel));
    ASSERT_TRUE(g.HasEdge(e.dst, e.src, e.rel));
  }
  size_t degrees = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      for (NodeId u : g.Neighbors(v, r)) ASSERT_LT(u, n);
      degrees += g.Degree(v, r);
    }
  }
  ASSERT_EQ(degrees, 2 * g.num_edges());
  ASSERT_TRUE(SaveGraph(g, path).ok());
  auto again = LoadGraph(path, LoadStrictness::kStrict);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->num_nodes(), n);
  EXPECT_EQ(again->num_edges(), g.num_edges());
  EXPECT_EQ(again->num_node_types(), g.num_node_types());
  EXPECT_EQ(again->num_relations(), g.num_relations());
}

// Seeded mutation fuzzer for the graph TSV loader: flips, truncations,
// splices and insertions of a saved graph. Every mutant must load to a
// Status or to a valid graph, never a CHECK-abort or undefined behaviour
// (scripts/asan_check.sh runs this under ASan/UBSan).
TEST_F(GraphIoTest, MutantsLoadToStatusOrValidGraph) {
  ASSERT_TRUE(SaveGraph(SmallBipartite(), path_).ok());
  const std::vector<char> pristine = ReadBytes(path_);
  const std::string roundtrip_path = path_ + ".roundtrip";
  // Fragments the loader parses, spliced in whole.
  const std::string tokens[] = {"node ",   "edge ",       "node_types ",
                                "relations ", " user",    " item",
                                " buy",    "-1",          "4294967296",
                                "\n",      "#",           " ",
                                "\t",      "99999999999999999999"};
  Rng rng(0x6AF0);
  auto pick = [&](size_t n) {
    return static_cast<size_t>(rng.UniformUint64(n));
  };
  size_t loaded = 0, rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<char> bytes = pristine;
    switch (pick(4)) {
      case 0:  // flip 1-4 bytes
        for (size_t k = 0, n = 1 + pick(4); k < n; ++k) {
          bytes[pick(bytes.size())] ^= static_cast<char>(1 + pick(255));
        }
        break;
      case 1:  // truncate
        bytes.resize(pick(bytes.size()));
        break;
      case 2: {  // splice a chunk of the file over a random position
        const size_t from = pick(pristine.size());
        const size_t len =
            1 + pick(std::min<size_t>(40, pristine.size() - from));
        const size_t at = pick(bytes.size());
        bytes.resize(std::max(bytes.size(), at + len));
        std::copy(pristine.begin() + static_cast<long>(from),
                  pristine.begin() + static_cast<long>(from + len),
                  bytes.begin() + static_cast<long>(at));
        break;
      }
      default: {  // insert random bytes or a loader token
        const size_t at = pick(bytes.size() + 1);
        std::vector<char> junk;
        if (rng.Bernoulli(0.5)) {
          const std::string& t = tokens[pick(std::size(tokens))];
          junk.assign(t.begin(), t.end());
        } else {
          junk.resize(1 + pick(24));
          for (char& c : junk) c = static_cast<char>(pick(256));
        }
        bytes.insert(bytes.begin() + static_cast<long>(at), junk.begin(),
                     junk.end());
        break;
      }
    }
    WriteBytes(path_, bytes);
    for (LoadStrictness strictness :
         {LoadStrictness::kLenient, LoadStrictness::kStrict}) {
      auto result = LoadGraph(path_, strictness);
      if (!result.ok()) {
        ++rejected;
        continue;
      }
      ++loaded;
      ExpectValidGraph(*result, roundtrip_path, trial);
    }
  }
  std::remove(roundtrip_path.c_str());
  // Both outcomes occur, so the mutations reach past the first check.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace hybridgnn
