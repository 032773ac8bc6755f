// Tests for the src/serve/ subsystem: checkpoint format robustness,
// save->load round trips, store-backed models, top-K retrieval, and the
// concurrent RecommendService (the latter are the serve targets of
// scripts/tsan_check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "baselines/deepwalk.h"
#include "common/rng.h"
#include "data/profiles.h"
#include "data/split.h"
#include "eval/evaluator.h"
#include "kernels/kernels.h"
#include "serve/checkpoint.h"
#include "serve/service.h"
#include "serve/store_model.h"
#include "serve/topk.h"
#include "test_util.h"

namespace hybridgnn {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

/// Random two-relation store over `num_nodes` nodes. Relation 1 only covers
/// the even node ids, exercising partial node->row mappings.
EmbeddingStore MakeRandomStore(size_t num_nodes, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<EmbeddingStore::TableInit> tables;
  for (int which : {0, 1}) {
    EmbeddingStore::TableInit t;
    t.name = which == 0 ? "view" : "buy";
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (which == 1 && v % 2 != 0) continue;
      t.row_to_node.push_back(v);
    }
    t.data = Tensor(t.row_to_node.size(), dim);
    for (size_t i = 0; i < t.data.size(); ++i) {
      t.data.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
    }
    tables.push_back(std::move(t));
  }
  auto store =
      EmbeddingStore::FromTables("random", num_nodes, std::move(tables));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

void ExpectStoresEqual(const EmbeddingStore& a, const EmbeddingStore& b) {
  ASSERT_EQ(a.model_name(), b.model_name());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.dim(), b.dim());
  ASSERT_EQ(a.num_relations(), b.num_relations());
  for (RelationId r = 0; r < a.num_relations(); ++r) {
    ASSERT_EQ(a.relation_name(r), b.relation_name(r));
    ASSERT_EQ(a.NumRows(r), b.NumRows(r));
    for (size_t row = 0; row < a.NumRows(r); ++row) {
      ASSERT_EQ(a.RowNode(r, row), b.RowNode(r, row));
    }
    const auto ta = a.Table(r);
    const auto tb = b.Table(r);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i) {
      ASSERT_EQ(ta[i], tb[i]) << "relation " << r << " element " << i;
    }
  }
}

/// Flips one byte of a file in place.
void CorruptByte(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c ^= 0x5A;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

TEST(EmbeddingStoreTest, FromTablesValidates) {
  // Row count / mapping mismatch.
  std::vector<EmbeddingStore::TableInit> bad1(1);
  bad1[0].name = "r";
  bad1[0].row_to_node = {0, 1};
  bad1[0].data = Tensor(3, 4);
  EXPECT_FALSE(EmbeddingStore::FromTables("m", 3, std::move(bad1)).ok());
  // Duplicate node id.
  std::vector<EmbeddingStore::TableInit> bad2(1);
  bad2[0].name = "r";
  bad2[0].row_to_node = {1, 1};
  bad2[0].data = Tensor(2, 4);
  EXPECT_FALSE(EmbeddingStore::FromTables("m", 3, std::move(bad2)).ok());
  // Node id out of range.
  std::vector<EmbeddingStore::TableInit> bad3(1);
  bad3[0].name = "r";
  bad3[0].row_to_node = {7};
  bad3[0].data = Tensor(1, 4);
  EXPECT_FALSE(EmbeddingStore::FromTables("m", 3, std::move(bad3)).ok());
}

TEST(EmbeddingStoreTest, LookupRespectsPartialCoverage) {
  EmbeddingStore store = MakeRandomStore(10, 4, 1);
  EXPECT_NE(store.Lookup(3, 0), nullptr);
  EXPECT_NE(store.Lookup(4, 1), nullptr);
  EXPECT_EQ(store.Lookup(3, 1), nullptr);   // odd node absent from "buy"
  EXPECT_EQ(store.Lookup(99, 0), nullptr);  // out of range node
  EXPECT_EQ(store.Lookup(0, 5), nullptr);   // out of range relation
  EXPECT_EQ(store.FindRelation("buy"), RelationId{1});
  EXPECT_EQ(store.FindRelation("nope"), kInvalidRelation);
}

TEST(CheckpointTest, RoundTripAtMultipleDims) {
  for (size_t dim : {5u, 16u, 33u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    EmbeddingStore store = MakeRandomStore(17, dim, 100 + dim);
    const std::string path =
        TempPath("roundtrip_" + std::to_string(dim) + ".hgc");
    ASSERT_TRUE(WriteCheckpoint(store, path).ok());

    auto copied = LoadCheckpoint(path, LoadMode::kCopy);
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    EXPECT_FALSE(copied->mmapped());
    ExpectStoresEqual(store, *copied);

    auto mapped = LoadCheckpoint(path, LoadMode::kMmap);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_TRUE(mapped->mmapped());
    ExpectStoresEqual(store, *mapped);
  }
}

TEST(CheckpointTest, RejectsMissingAndTruncatedFiles) {
  EXPECT_EQ(LoadCheckpoint(TempPath("nope.hgc")).status().code(),
            StatusCode::kIoError);

  EmbeddingStore store = MakeRandomStore(17, 8, 2);
  const std::string path = TempPath("trunc.hgc");
  ASSERT_TRUE(WriteCheckpoint(store, path).ok());
  // Shorter than the header.
  fs::resize_file(path, 40);
  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
    auto r = LoadCheckpoint(path, mode);
    EXPECT_EQ(r.status().code(), StatusCode::kIoError)
        << r.status().ToString();
  }
  // Header intact but payload cut short.
  ASSERT_TRUE(WriteCheckpoint(store, path).ok());
  fs::resize_file(path, fs::file_size(path) - 13);
  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
    auto r = LoadCheckpoint(path, mode);
    EXPECT_EQ(r.status().code(), StatusCode::kIoError)
        << r.status().ToString();
  }
}

TEST(CheckpointTest, RejectsBadMagic) {
  EmbeddingStore store = MakeRandomStore(9, 8, 3);
  const std::string path = TempPath("magic.hgc");
  ASSERT_TRUE(WriteCheckpoint(store, path).ok());
  CorruptByte(path, 0);
  auto r = LoadCheckpoint(path);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

TEST(CheckpointTest, RejectsVersionSkew) {
  EmbeddingStore store = MakeRandomStore(9, 8, 4);
  const std::string path = TempPath("version.hgc");
  ASSERT_TRUE(WriteCheckpoint(store, path).ok());
  CorruptByte(path, 6);  // format version field
  auto r = LoadCheckpoint(path);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();
}

TEST(CheckpointTest, RejectsForeignEndianness) {
  EmbeddingStore store = MakeRandomStore(9, 8, 5);
  const std::string path = TempPath("endian.hgc");
  ASSERT_TRUE(WriteCheckpoint(store, path).ok());
  // Swap the endian tag bytes — exactly what a foreign-endian reader sees.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  char tag[2];
  f.seekg(4).read(tag, 2);
  std::swap(tag[0], tag[1]);
  f.seekp(4).write(tag, 2);
  f.close();
  auto r = LoadCheckpoint(path);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();
}

TEST(CheckpointTest, RejectsPayloadCorruption) {
  EmbeddingStore store = MakeRandomStore(9, 8, 6);
  const std::string path = TempPath("payload.hgc");
  ASSERT_TRUE(WriteCheckpoint(store, path).ok());
  CorruptByte(path, fs::file_size(path) - 1);  // inside the last table
  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
    auto r = LoadCheckpoint(path, mode);
    EXPECT_EQ(r.status().code(), StatusCode::kIoError)
        << r.status().ToString();
  }
  // Header corruption (a size field) is caught by the header checksum.
  ASSERT_TRUE(WriteCheckpoint(store, path).ok());
  CorruptByte(path, 16);
  auto r = LoadCheckpoint(path);
  EXPECT_EQ(r.status().code(), StatusCode::kIoError)
      << r.status().ToString();
}

/// Save -> load must reproduce the model's scores and therefore its
/// link-prediction metrics exactly (double-precision dot over identical
/// float rows).
TEST(CheckpointTest, SaveLoadReproducesModelBitIdentically) {
  auto ds = MakeDataset("taobao", 0.08, 21);
  ASSERT_TRUE(ds.ok());
  Rng rng(22);
  auto split = SplitEdges(ds->graph, SplitOptions{}, rng);
  ASSERT_TRUE(split.ok());

  DeepWalk::Options options;
  options.sgns.dim = 32;
  options.sgns.epochs = 1;
  DeepWalk model(options);
  ASSERT_TRUE(model.Fit(split->train_graph).ok());

  const std::string path = TempPath("deepwalk.hgc");
  ASSERT_TRUE(SaveCheckpoint(model, split->train_graph, path).ok());

  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMmap}) {
    auto loaded = LoadCheckpoint(path, mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    StoreBackedModel frozen(
        std::make_shared<EmbeddingStore>(std::move(loaded).value()));
    EXPECT_EQ(frozen.name(), model.name());

    // Raw embeddings identical...
    for (NodeId v : {NodeId{0}, NodeId{5}, NodeId{17}}) {
      for (RelationId r = 0; r < split->train_graph.num_relations(); ++r) {
        Tensor a = model.Embedding(v, r);
        Tensor b = frozen.Embedding(v, r);
        ASSERT_EQ(a.cols(), b.cols());
        for (size_t j = 0; j < a.cols(); ++j) {
          ASSERT_EQ(a.At(0, j), b.At(0, j));
        }
      }
    }
    // ...scores identical...
    auto scores_live = model.ScoreMany(split->test_pos);
    auto scores_frozen = frozen.ScoreMany(split->test_pos);
    ASSERT_EQ(scores_live.size(), scores_frozen.size());
    for (size_t i = 0; i < scores_live.size(); ++i) {
      ASSERT_EQ(scores_live[i], scores_frozen[i]);
    }
    // ...and so are the evaluation metrics.
    EvalOptions eval_options;
    eval_options.max_ranking_queries = 40;
    Rng rng_a(77), rng_b(77);
    LinkPredictionResult live = EvaluateLinkPrediction(
        model, ds->graph, *split, eval_options, rng_a);
    LinkPredictionResult frozen_result = EvaluateLinkPrediction(
        frozen, ds->graph, *split, eval_options, rng_b);
    EXPECT_EQ(live.roc_auc, frozen_result.roc_auc);
    EXPECT_EQ(live.pr_auc, frozen_result.pr_auc);
    EXPECT_EQ(live.f1, frozen_result.f1);
    EXPECT_EQ(live.pr_at_k, frozen_result.pr_at_k);
    EXPECT_EQ(live.hr_at_k, frozen_result.hr_at_k);
  }
}

TEST(StoreBackedModelTest, RefusesFitAndZeroFillsMissingRows) {
  auto store = std::make_shared<EmbeddingStore>(MakeRandomStore(10, 4, 8));
  StoreBackedModel model(store);
  EXPECT_EQ(model.Fit(testing::SmallBipartite()).code(),
            StatusCode::kFailedPrecondition);
  Tensor missing = model.Embedding(3, 1);  // odd node absent from "buy"
  for (size_t j = 0; j < missing.cols(); ++j) {
    EXPECT_EQ(missing.At(0, j), 0.0f);
  }
}

/// Reference implementation: full scan + sort.
std::vector<Recommendation> BruteForceTopK(const EmbeddingStore& store,
                                           const TopKQuery& q, bool cosine) {
  const float* qrow = store.Lookup(q.node, q.rel);
  const size_t dim = store.dim();
  std::vector<Recommendation> all;
  for (size_t row = 0; row < store.NumRows(q.rel); ++row) {
    const NodeId cand = store.RowNode(q.rel, row);
    if (cand == q.node) continue;
    const float* crow = store.Table(q.rel).data() + row * dim;
    double s = 0.0, qn = 0.0, cn = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      s += static_cast<double>(qrow[j]) * crow[j];
      qn += static_cast<double>(qrow[j]) * qrow[j];
      cn += static_cast<double>(crow[j]) * crow[j];
    }
    if (cosine) s /= std::sqrt(qn) * std::sqrt(cn);
    all.push_back({cand, static_cast<float>(s)});
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.node < b.node;
  });
  if (all.size() > q.k) all.resize(q.k);
  return all;
}

TEST(TopKRecommenderTest, MatchesBruteForce) {
  EmbeddingStore store = MakeRandomStore(60, 8, 9);
  for (bool cosine : {false, true}) {
    SCOPED_TRACE(cosine ? "cosine" : "dot");
    TopKOptions options;
    options.cosine = cosine;
    TopKRecommender rec(&store, nullptr, options);
    for (NodeId node : {NodeId{0}, NodeId{7}, NodeId{42}}) {
      for (RelationId r : {RelationId{0}, RelationId{1}}) {
        TopKQuery q;
        q.node = node;
        q.rel = r;
        q.k = 5;
        auto got = rec.Recommend(q);
        if (store.Lookup(node, r) == nullptr) {
          EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
          continue;
        }
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        auto want = BruteForceTopK(store, q, cosine);
        ASSERT_EQ(got->size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ((*got)[i].node, want[i].node) << "rank " << i;
          EXPECT_NEAR((*got)[i].score, want[i].score, 1e-5) << "rank " << i;
        }
      }
    }
  }
}

TEST(TopKRecommenderTest, FiltersNeighborsAndCandidateType) {
  MultiplexHeteroGraph g = testing::SmallBipartite();
  // Identity store over the graph's 7 nodes.
  Rng rng(10);
  std::vector<EmbeddingStore::TableInit> tables;
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    EmbeddingStore::TableInit t;
    t.name = g.relation_name(r);
    t.row_to_node.resize(g.num_nodes());
    t.data = Tensor(g.num_nodes(), 4);
    for (NodeId v = 0; v < g.num_nodes(); ++v) t.row_to_node[v] = v;
    for (size_t i = 0; i < t.data.size(); ++i) {
      t.data.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
    }
    tables.push_back(std::move(t));
  }
  auto store = EmbeddingStore::FromTables("ident", g.num_nodes(),
                                          std::move(tables));
  ASSERT_TRUE(store.ok());
  TopKRecommender rec(&*store, &g, TopKOptions{});

  // User 0 under "view" already links to items 4 and 5; with items as the
  // candidate type, only item 6 is left.
  TopKQuery q;
  q.node = 0;
  q.rel = 0;
  q.k = 10;
  q.candidate_type = g.FindNodeType("item");
  auto got = rec.Recommend(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ((*got)[0].node, NodeId{6});

  // Without the exclusion, all three items come back.
  q.exclude_train_neighbors = false;
  got = rec.Recommend(q);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 3u);

  // Candidate typing without a graph is an error.
  TopKRecommender graphless(&*store, nullptr, TopKOptions{});
  q.exclude_train_neighbors = true;
  EXPECT_EQ(graphless.Recommend(q).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TopKRecommenderTest, RejectsBadQueries) {
  EmbeddingStore store = MakeRandomStore(10, 4, 11);
  TopKRecommender rec(&store, nullptr, TopKOptions{});
  TopKQuery q;
  q.rel = 9;
  EXPECT_EQ(rec.Recommend(q).status().code(), StatusCode::kInvalidArgument);
  q.rel = 0;
  q.k = 0;
  EXPECT_EQ(rec.Recommend(q).status().code(), StatusCode::kInvalidArgument);
  q.k = 3;
  q.node = 3;
  q.rel = 1;  // odd node, partial table
  EXPECT_EQ(rec.Recommend(q).status().code(), StatusCode::kNotFound);
}

TEST(TopKRecommenderTest, BatchIsThreadCountInvariant) {
  EmbeddingStore store = MakeRandomStore(80, 16, 12);
  Rng rng(13);
  std::vector<TopKQuery> queries(64);
  for (auto& q : queries) {
    q.node = static_cast<NodeId>(rng.UniformUint64(80));
    q.rel = 0;
    q.k = 7;
  }
  TopKOptions serial;
  serial.num_threads = 1;
  TopKOptions parallel;
  parallel.num_threads = 4;
  auto a = TopKRecommender(&store, nullptr, serial).RecommendBatch(queries);
  auto b =
      TopKRecommender(&store, nullptr, parallel).RecommendBatch(queries);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    ASSERT_EQ(a[i]->size(), b[i]->size());
    for (size_t j = 0; j < a[i]->size(); ++j) {
      EXPECT_EQ((*a[i])[j].node, (*b[i])[j].node);
      EXPECT_EQ((*a[i])[j].score, (*b[i])[j].score);
    }
  }
}

/// FNV-1a over (node id, score bits) of every typed top-10 a fixed query
/// set returns from a fixed store and graph: exact and ANN, dot and cosine.
/// Table rows are shuffled so each type's candidates are scattered rows.
uint64_t TypedTopKHash(StoreDType dtype) {
  auto ds = MakeDataset("taobao", 0.25, 5);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  const MultiplexHeteroGraph& g = ds->graph;
  Rng rng(21);
  std::vector<EmbeddingStore::TableInit> tables;
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    EmbeddingStore::TableInit t;
    t.name = g.relation_name(r);
    for (NodeId v = 0; v < g.num_nodes(); ++v) t.row_to_node.push_back(v);
    rng.Shuffle(t.row_to_node);
    t.data = Tensor(g.num_nodes(), 36);
    for (size_t i = 0; i < t.data.size(); ++i) {
      t.data.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
    }
    tables.push_back(std::move(t));
  }
  auto store = EmbeddingStore::FromTables("typed", g.num_nodes(),
                                          std::move(tables));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (dtype == StoreDType::kI8) store = EmbeddingStore::Quantized(*store);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h = (h ^ ((word >> (8 * b)) & 0xFFu)) * 1099511628211ull;
    }
  };
  for (bool ann : {false, true}) {
    for (bool cosine : {false, true}) {
      TopKOptions options;
      options.ann = ann;
      options.ann_min_rows = 64;
      options.ef_search = 32;
      options.cosine = cosine;
      TopKRecommender rec(&*store, &g, options);
      for (NodeId v = 0; v < g.num_nodes(); v += 7) {
        for (NodeTypeId t = 0; t < g.num_node_types(); ++t) {
          TopKQuery q;
          q.node = v;
          q.rel = static_cast<RelationId>(v % g.num_relations());
          q.k = 10;
          q.candidate_type = t;
          auto got = rec.Recommend(q);
          EXPECT_TRUE(got.ok()) << got.status().ToString();
          if (!got.ok()) continue;
          for (const Recommendation& r : *got) {
            mix(r.node);
            mix(std::bit_cast<uint32_t>(r.score));
          }
        }
      }
    }
  }
  return h;
}

// Pins every typed top-K score bit per kernel backend and store dtype, so a
// change to the scan kernels or the candidate paths must keep them.
TEST(TopKRecommenderTest, TypedQueriesMatchGolden) {
  struct Case {
    kernels::Backend backend;
    StoreDType dtype;
    uint64_t golden;
  };
  const Case cases[] = {
      {kernels::Backend::kScalar, StoreDType::kF32, 0x4fc8f881386ce55bull},
      {kernels::Backend::kScalar, StoreDType::kI8, 0x26f94144e7cbbc23ull},
      {kernels::Backend::kAvx2, StoreDType::kF32, 0x4fc8f881386ce55bull},
      {kernels::Backend::kAvx2, StoreDType::kI8, 0xb7bd3860cb9cf5faull},
  };
  for (const Case& c : cases) {
    if (c.backend == kernels::Backend::kAvx2 && !kernels::Avx2Available()) {
      continue;
    }
    kernels::ScopedBackend scoped(c.backend);
    const uint64_t got = TypedTopKHash(c.dtype);
    EXPECT_EQ(got, c.golden)
        << kernels::BackendName(c.backend) << " "
        << (c.dtype == StoreDType::kF32 ? "f32" : "i8") << " got 0x"
        << std::hex << got;
  }
}

TEST(RecommendServiceTest, ServesConcurrentClientsCorrectly) {
  EmbeddingStore store = MakeRandomStore(50, 8, 14);
  TopKRecommender rec(&store, nullptr, TopKOptions{});
  ServiceOptions options;
  options.num_threads = 2;
  options.batch_window_ms = 0.5;
  options.max_batch_size = 8;
  RecommendService service(&rec, options);

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 25;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(200 + c);
      for (size_t i = 0; i < kPerClient; ++i) {
        TopKQuery q;
        q.node = static_cast<NodeId>(rng.UniformUint64(50));
        q.rel = 0;
        q.k = 5;
        RecommendResponse resp = service.Call(q);
        if (!resp.status.ok() || resp.items.size() != 5) {
          ++failures[c];
          continue;
        }
        auto direct = rec.Recommend(q);
        if (!direct.ok() || direct->size() != resp.items.size()) {
          ++failures[c];
          continue;
        }
        for (size_t j = 0; j < resp.items.size(); ++j) {
          if (resp.items[j].node != (*direct)[j].node) ++failures[c];
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  MetricsSnapshot snap = service.metrics();
  EXPECT_EQ(snap.requests, kClients * kPerClient);
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_GE(snap.batches, 1u);
  EXPECT_EQ(snap.items_returned, kClients * kPerClient * 5);
  EXPECT_GT(snap.latency_p99_ms, 0.0);
  EXPECT_GE(snap.latency_p99_ms, snap.latency_p50_ms);
}

TEST(RecommendServiceTest, ErrorsAreReportedPerRequest) {
  EmbeddingStore store = MakeRandomStore(20, 4, 15);
  TopKRecommender rec(&store, nullptr, TopKOptions{});
  RecommendService service(&rec, ServiceOptions{});
  TopKQuery bad;
  bad.rel = 7;
  RecommendResponse resp = service.Call(bad);
  EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(resp.items.empty());
  EXPECT_EQ(service.metrics().errors, 1u);
}

TEST(RecommendServiceTest, ShutdownDrainsPendingAndRejectsNewWork) {
  EmbeddingStore store = MakeRandomStore(30, 8, 16);
  TopKRecommender rec(&store, nullptr, TopKOptions{});
  std::vector<std::future<RecommendResponse>> futures;
  ServiceOptions options;
  options.batch_window_ms = 50.0;  // long window: requests queue up
  {
    RecommendService service(&rec, options);
    for (size_t i = 0; i < 10; ++i) {
      TopKQuery q;
      q.node = static_cast<NodeId>(i);
      q.rel = 0;
      q.k = 3;
      futures.push_back(service.Submit(q));
    }
    service.Shutdown();
    // After shutdown, new submissions resolve immediately with an error.
    RecommendResponse rejected = service.Call(TopKQuery{});
    EXPECT_EQ(rejected.status.code(), StatusCode::kFailedPrecondition);
  }  // destructor: Shutdown is idempotent
  for (auto& f : futures) {
    RecommendResponse resp = f.get();  // every future was fulfilled
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.items.size(), 3u);
  }
}

TEST(ServeMetricsTest, HistogramPercentiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.PercentileMs(50.0), 0.0);
  for (int i = 0; i < 99; ++i) h.Record(1.0);
  h.Record(1000.0);
  EXPECT_EQ(h.count(), 100u);
  // p50 and p99 fall in the ~1ms bucket (upper bound 1.024ms); p100 lands
  // in the ~1s bucket.
  EXPECT_LT(h.PercentileMs(50.0), 2.0);
  EXPECT_LT(h.PercentileMs(99.0), 2.0);
  EXPECT_GT(h.PercentileMs(100.0), 500.0);
  EXPECT_NEAR(h.MeanMs(), (99.0 * 1.0 + 1000.0) / 100.0, 0.1);
}

}  // namespace
}  // namespace hybridgnn
