// Tests for the ANN retrieval layer (src/serve/ann + the recommender's
// candidate-generation path, DESIGN.md section 17): recall against the
// exact scan across both store dtypes, byte-level construction determinism,
// filter composition / over-fetch refill, exact-fallback routing, the
// in-place scorer's bitwise equivalence to per-row scoring, and index
// freshness across streaming publishes. The concurrent search-during-
// publish case is a TSan target of scripts/tsan_check.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/ann/ann_index.h"
#include "serve/block_scorer.h"
#include "serve/embedding_store.h"
#include "serve/topk.h"
#include "stream/live_store.h"
#include "tensor/tensor.h"

namespace hybridgnn {
namespace {

/// Single-relation random store: node id == row id, `num_nodes` rows.
EmbeddingStore MakeStore(size_t num_nodes, size_t dim, uint64_t seed) {
  Rng rng(seed);
  EmbeddingStore::TableInit t;
  t.name = "click";
  for (NodeId v = 0; v < num_nodes; ++v) t.row_to_node.push_back(v);
  t.data = Tensor(num_nodes, dim);
  for (size_t i = 0; i < t.data.size(); ++i) {
    t.data.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
  }
  std::vector<EmbeddingStore::TableInit> tables;
  tables.push_back(std::move(t));
  auto store =
      EmbeddingStore::FromTables("ann", num_nodes, std::move(tables));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

/// Type-annotated bipartite graph over `num_nodes` nodes: even ids are
/// "user" (type 0), odd ids are "item" (type 1); each user views the next
/// `fanout` items after it. Node/row spaces match MakeStore's.
MultiplexHeteroGraph MakeTypedGraph(size_t num_nodes, size_t fanout) {
  GraphBuilder b;
  EXPECT_TRUE(b.AddNodeType("user").ok());
  EXPECT_TRUE(b.AddNodeType("item").ok());
  EXPECT_TRUE(b.AddRelation("click").ok());
  for (NodeId v = 0; v < num_nodes; ++v) {
    EXPECT_TRUE(b.AddNodes(v % 2 == 0 ? 0 : 1, 1).ok());
  }
  for (NodeId u = 0; u < num_nodes; u += 2) {
    for (size_t j = 0; j < fanout; ++j) {
      const NodeId item = (u + 1 + 2 * j) % num_nodes;
      if (item % 2 == 1) {
        EXPECT_TRUE(b.AddEdge(u, item, 0).ok());
      }
    }
  }
  auto g = b.Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

double RecallAt10(const std::vector<Recommendation>& exact,
                  const std::vector<Recommendation>& approx) {
  std::set<NodeId> truth;
  for (size_t i = 0; i < std::min<size_t>(10, exact.size()); ++i) {
    truth.insert(exact[i].node);
  }
  if (truth.empty()) return 1.0;
  size_t hit = 0;
  for (size_t i = 0; i < std::min<size_t>(10, approx.size()); ++i) {
    hit += truth.count(approx[i].node);
  }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

TopKOptions AnnOptions(size_t min_rows = 64) {
  TopKOptions o;
  o.ann = true;
  o.ann_min_rows = min_rows;
  o.ef_search = 96;
  return o;
}

// --- recall vs the exact scan, both dtypes ---

void CheckRecall(StoreDType dtype) {
  EmbeddingStore fp32 = MakeStore(3000, 32, 0xD7 + static_cast<int>(dtype));
  EmbeddingStore store = std::move(fp32);
  if (dtype != StoreDType::kF32) {
    auto q = EmbeddingStore::Quantized(store);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    store = std::move(q).value();
  }
  TopKOptions exact_opts;
  TopKRecommender exact(&store, nullptr, exact_opts);
  TopKRecommender approx(&store, nullptr, AnnOptions());
  ASSERT_TRUE(approx.ann_enabled());
  ASSERT_NE(approx.ann_indexes()[0], nullptr);

  double recall_sum = 0.0;
  const size_t kQueries = 50;
  for (NodeId v = 0; v < kQueries; ++v) {
    TopKQuery q;
    q.node = v * 37 % 3000;
    q.rel = 0;
    q.k = 10;
    auto e = exact.Recommend(q);
    auto a = approx.Recommend(q);
    ASSERT_TRUE(e.ok() && a.ok());
    // Every ANN score must equal the exact score for that node: the pool is
    // re-ranked through the same kernels, so only membership may differ.
    for (const Recommendation& r : *a) {
      auto it = std::find_if(e->begin(), e->end(), [&](const auto& x) {
        return x.node == r.node;
      });
      if (it != e->end()) {
        EXPECT_EQ(r.score, it->score) << "node " << r.node;
      }
    }
    recall_sum += RecallAt10(*e, *a);
  }
  EXPECT_GE(recall_sum / kQueries, 0.95)
      << "mean recall@10 under " << StoreDTypeName(dtype);
}

TEST(AnnIndexTest, RecallF32) { CheckRecall(StoreDType::kF32); }
TEST(AnnIndexTest, RecallI8) { CheckRecall(StoreDType::kI8); }

// --- determinism: same seed + same table => byte-identical index ---

TEST(AnnIndexTest, DeterministicRebuild) {
  EmbeddingStore store = MakeStore(2000, 16, 0xBEEF);
  AnnBuildOptions opts;
  auto a = AnnIndex::Build(store, 0, opts);
  auto b = AnnIndex::Build(store, 0, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)->ContentHash(), (*b)->ContentHash());
  EXPECT_EQ((*a)->entry_point(), (*b)->entry_point());
  EXPECT_EQ((*a)->max_level(), (*b)->max_level());

  AnnBuildOptions other = opts;
  other.seed = opts.seed + 1;
  auto c = AnnIndex::Build(store, 0, other);
  ASSERT_TRUE(c.ok());
  // Different seed permutes the level draws — the structure must differ.
  EXPECT_NE((*a)->ContentHash(), (*c)->ContentHash());

  // Thread count steers wall clock only: a serial build and a 4-worker
  // batch-parallel build must produce byte-identical adjacency.
  AnnBuildOptions serial = opts;
  serial.build_threads = 1;
  AnnBuildOptions wide = opts;
  wide.build_threads = 4;
  auto d = AnnIndex::Build(store, 0, serial);
  auto e = AnnIndex::Build(store, 0, wide);
  ASSERT_TRUE(d.ok() && e.ok());
  EXPECT_EQ((*d)->ContentHash(), (*e)->ContentHash());
  EXPECT_EQ((*a)->ContentHash(), (*e)->ContentHash());
  EXPECT_TRUE(serial == wide);  // interchangeable for the patch policy

  // The batch size IS structure-affecting: rows inside one batch cannot
  // see each other, so a different batching yields a different graph.
  AnnBuildOptions rebatched = opts;
  rebatched.insert_batch = 16;
  EXPECT_FALSE(opts == rebatched);
  auto f = AnnIndex::Build(store, 0, rebatched);
  ASSERT_TRUE(f.ok());
  EXPECT_NE((*a)->ContentHash(), (*f)->ContentHash());
}

TEST(AnnIndexTest, BuildValidates) {
  EmbeddingStore store = MakeStore(16, 8, 1);
  AnnBuildOptions opts;
  EXPECT_FALSE(AnnIndex::Build(store, 7, opts).ok());  // bad relation
  opts.M = 1;
  EXPECT_FALSE(AnnIndex::Build(store, 0, opts).ok());  // M too small
  opts.M = 16;
  opts.ef_construction = 4;
  EXPECT_FALSE(AnnIndex::Build(store, 0, opts).ok());  // ef_c < M
}

// --- filter composition: exclusions never surface, over-fetch refills ---

TEST(AnnRecommenderTest, FiltersComposeAndOverFetchRefills) {
  const size_t kNodes = 2048;
  EmbeddingStore store = MakeStore(kNodes, 16, 0xF1);
  MultiplexHeteroGraph g = MakeTypedGraph(kNodes, 6);
  TopKOptions opts = AnnOptions();
  TopKRecommender exact(&store, &g, TopKOptions{});
  TopKRecommender approx(&store, &g, opts);
  ASSERT_TRUE(approx.ann_enabled());

  for (NodeId u = 0; u < 40; u += 2) {
    TopKQuery q;
    q.node = u;
    q.rel = 0;
    q.k = 10;
    q.candidate_type = 1;  // items only
    q.exclude_train_neighbors = true;
    auto res = approx.Recommend(q);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    // Over-fetch must leave a full k after the type + neighbor filters ate
    // their share (the table has ~1024 items, far more than k).
    EXPECT_EQ(res->size(), q.k);
    auto nbrs = g.Neighbors(u, 0);
    for (const Recommendation& r : *res) {
      EXPECT_NE(r.node, u);
      EXPECT_EQ(g.node_type(r.node), NodeTypeId{1}) << r.node;
      EXPECT_FALSE(std::binary_search(nbrs.begin(), nbrs.end(), r.node))
          << "train neighbor " << r.node << " leaked into results";
    }
  }
}

TEST(AnnRecommenderTest, DeltaEdgeExclusionsHold) {
  const size_t kNodes = 2048;
  EmbeddingStore store = MakeStore(kNodes, 16, 0xF2);
  // Exclude the exact top-5 of node 0, forcing the ANN pool to refill from
  // deeper candidates.
  TopKRecommender exact(&store, nullptr, TopKOptions{});
  TopKQuery q;
  q.node = 0;
  q.rel = 0;
  q.k = 5;
  auto top = exact.Recommend(q);
  ASSERT_TRUE(top.ok());
  DeltaEdgeFilter filter(store.num_relations());
  for (const Recommendation& r : *top) {
    ASSERT_TRUE(filter.AddEdge(0, r.node, 0));
  }
  TopKRecommender approx(&store, nullptr, AnnOptions(), &filter);
  q.k = 10;
  auto res = approx.Recommend(q);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->size(), q.k);
  for (const Recommendation& r : *res) {
    for (const Recommendation& banned : *top) {
      EXPECT_NE(r.node, banned.node) << "excluded candidate surfaced";
    }
  }
}

// --- fallback routing ---

TEST(AnnRecommenderTest, SmallTableRoutesToExactScan) {
  EmbeddingStore store = MakeStore(256, 16, 0xAB);
  TopKOptions opts = AnnOptions(/*min_rows=*/4096);  // table far below floor
  TopKRecommender approx(&store, nullptr, opts);
  TopKRecommender exact(&store, nullptr, TopKOptions{});
  EXPECT_TRUE(approx.ann_enabled());
  ASSERT_EQ(approx.ann_indexes().size(), store.num_relations());
  EXPECT_EQ(approx.ann_indexes()[0], nullptr);  // never indexed
  for (NodeId v : {NodeId{0}, NodeId{17}, NodeId{255}}) {
    TopKQuery q;
    q.node = v;
    q.rel = 0;
    q.k = 10;
    auto a = approx.Recommend(q);
    auto e = exact.Recommend(q);
    ASSERT_TRUE(a.ok() && e.ok());
    // Unindexed relation must reproduce the exact scan bit for bit.
    ASSERT_EQ(a->size(), e->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].node, (*e)[i].node);
      EXPECT_EQ((*a)[i].score, (*e)[i].score);
    }
  }
}

TEST(AnnRecommenderTest, AnnOffReproducesExactPath) {
  EmbeddingStore store = MakeStore(2048, 16, 0xC4);
  TopKQuery q;
  q.node = 3;
  q.rel = 0;
  q.k = 10;
  TopKRecommender exact(&store, nullptr, TopKOptions{});
  auto baseline = exact.Recommend(q);
  ASSERT_TRUE(baseline.ok());
  // ann = false with every other ANN knob set: no index is built and
  // results are bitwise the exact scan's.
  TopKOptions opts = AnnOptions();
  opts.ann = false;
  TopKRecommender rec(&store, nullptr, opts);
  EXPECT_FALSE(rec.ann_enabled());
  EXPECT_TRUE(rec.ann_indexes().empty());
  auto r = rec.Recommend(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), baseline->size());
  for (size_t i = 0; i < r->size(); ++i) {
    EXPECT_EQ((*r)[i].node, (*baseline)[i].node);
    EXPECT_EQ((*r)[i].score, (*baseline)[i].score);
  }
}

// --- in-place scoring by row id: bitwise equal to per-row scoring ---

void CheckInPlaceEquivalence(StoreDType dtype) {
  EmbeddingStore fp32 = MakeStore(700, 24, 0x9A + static_cast<int>(dtype));
  EmbeddingStore store = std::move(fp32);
  if (dtype != StoreDType::kF32) {
    auto q = EmbeddingStore::Quantized(store);
    ASSERT_TRUE(q.ok());
    store = std::move(q).value();
  }
  std::vector<float> query(store.dim());
  store.DequantizeRow(0, 11, query.data());
  const BlockScorer scorer(&store, 0, query.data());
  // A scattered, unsorted, duplicate-bearing row set, longer than one
  // scan block.
  std::vector<uint32_t> rows;
  Rng rng(0x5C);
  for (size_t i = 0; i < BlockScorer::kBlockRows + 3; ++i) {
    rows.push_back(static_cast<uint32_t>(rng.UniformInt(0, 699)));
  }
  std::vector<double> scattered(rows.size());
  scorer.ScoreRows(rows.data(), rows.size(), scattered.data());
  // The whole table in one ScoreRange call (several blocks).
  std::vector<double> dense(store.NumRows(0));
  scorer.ScoreRange(0, dense.size(), dense.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    double one = 0.0;
    scorer.ScoreRange(rows[i], 1, &one);
    // Bitwise: the kernels score each row independently of the others in
    // the call, so neither the id order nor the neighbours may change an
    // ulp.
    EXPECT_EQ(scattered[i], one) << "row " << rows[i] << " under "
                                 << StoreDTypeName(dtype);
    EXPECT_EQ(dense[rows[i]], one) << "row " << rows[i] << " under "
                                   << StoreDTypeName(dtype);
  }
}

TEST(BlockScorerTest, InPlaceBitwiseEqualF32) {
  CheckInPlaceEquivalence(StoreDType::kF32);
}
TEST(BlockScorerTest, InPlaceBitwiseEqualI8) {
  CheckInPlaceEquivalence(StoreDType::kI8);
}

TEST(BlockScorerTest, TypedScanMatchesUnfilteredScores) {
  // The type-filtered scan must assign every returned node the same score
  // the dense scan assigns it.
  const size_t kNodes = 1024;
  EmbeddingStore store = MakeStore(kNodes, 16, 0x77);
  MultiplexHeteroGraph g = MakeTypedGraph(kNodes, 2);
  TopKRecommender rec(&store, &g, TopKOptions{});
  TopKQuery dense;
  dense.node = 0;
  dense.rel = 0;
  dense.k = kNodes;  // everything, unfiltered
  dense.exclude_train_neighbors = false;
  auto all = rec.Recommend(dense);
  ASSERT_TRUE(all.ok());
  TopKQuery typed = dense;
  typed.candidate_type = 1;
  auto items = rec.Recommend(typed);
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(items->size(), kNodes / 2);
  for (const Recommendation& r : *items) {
    auto it = std::find_if(all->begin(), all->end(), [&](const auto& x) {
      return x.node == r.node;
    });
    ASSERT_NE(it, all->end());
    EXPECT_EQ(r.score, it->score) << "node " << r.node;
  }
}

// --- satellite: query validation ---

TEST(AnnRecommenderTest, OutOfRangeNodeIsInvalidArgument) {
  const size_t kNodes = 128;
  EmbeddingStore store = MakeStore(kNodes, 8, 0x31);
  MultiplexHeteroGraph g = MakeTypedGraph(kNodes, 2);
  TopKRecommender rec(&store, &g, TopKOptions{});
  TopKQuery q;
  q.node = kNodes + 5;  // beyond both graph and store id space
  q.rel = 0;
  q.k = 10;
  EXPECT_EQ(rec.Recommend(q).status().code(), StatusCode::kInvalidArgument);
  // In range but absent from the table stays NotFound (graphless).
  TopKRecommender graphless(&store, nullptr, TopKOptions{});
  q.node = kNodes + 5;
  EXPECT_EQ(graphless.Recommend(q).status().code(), StatusCode::kNotFound);
}

// --- publish-time freshness and the concurrent search/publish race ---

TEST(AnnLiveStoreTest, PublishedIndexSeesStreamedInNode) {
  const size_t kNodes = 1500;
  EmbeddingStore store = MakeStore(kNodes, 16, 0x88);
  TopKOptions opts = AnnOptions();
  auto live = LiveEmbeddingStore::Create(store, nullptr, opts);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  auto v1 = (*live)->Acquire();
  ASSERT_TRUE(v1->recommender->ann_enabled());
  const AnnIndex* index1 = v1->recommender->ann_indexes()[0].get();
  ASSERT_NE(index1, nullptr);

  // Stream in a brand-new node whose vector clones node 7's: it must land
  // in node 7's neighborhood of the patched index immediately.
  const NodeId fresh = kNodes + 10;
  auto ensured = (*live)->EnsureRow(0, fresh);
  ASSERT_TRUE(ensured.ok());
  float* row = (*live)->MutableRow(0, fresh);
  const float* donor = (*live)->Row(0, 7);
  for (size_t j = 0; j < (*live)->dim(); ++j) row[j] = donor[j];
  ASSERT_TRUE((*live)->Publish(nullptr).ok());

  auto v2 = (*live)->Acquire();
  const AnnIndex* index2 = v2->recommender->ann_indexes()[0].get();
  ASSERT_NE(index2, nullptr);
  EXPECT_EQ(index2->num_rows(), index1->num_rows() + 1);

  TopKQuery q;
  q.node = 7;
  q.rel = 0;
  q.k = 5;
  q.exclude_train_neighbors = false;
  auto res = v2->recommender->Recommend(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_FALSE(res->empty());
  // An exact clone of the query vector dominates every random dot product.
  EXPECT_EQ(res->front().node, fresh);

  // An untouched publish shares the index outright instead of rebuilding.
  ASSERT_TRUE((*live)->Publish(nullptr).ok());
  auto v3 = (*live)->Acquire();
  EXPECT_EQ(v3->recommender->ann_indexes()[0].get(), index2);
}

TEST(AnnLiveStoreTest, ConcurrentSearchDuringPublish) {
  const size_t kNodes = 1200;
  EmbeddingStore store = MakeStore(kNodes, 8, 0x99);
  TopKOptions opts = AnnOptions();
  opts.num_threads = 1;
  auto created = LiveEmbeddingStore::Create(store, nullptr, opts);
  ASSERT_TRUE(created.ok());
  LiveEmbeddingStore* live = created->get();

  std::atomic<bool> stop{false};
  std::atomic<size_t> queries{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto version = live->Acquire();
        TopKQuery q;
        q.node = static_cast<NodeId>(
            rng.UniformInt(0, static_cast<int64_t>(kNodes) - 1));
        q.rel = 0;
        q.k = 10;
        auto res = version->recommender->Recommend(q);
        EXPECT_TRUE(res.ok()) << res.status().ToString();
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Writer: mutate a few rows and publish, repeatedly — every publish
  // patches or rebuilds the index while the readers traverse the old one.
  Rng rng(7);
  for (int pub = 0; pub < 12; ++pub) {
    for (int i = 0; i < 5; ++i) {
      float* row = live->MutableRow(
          0, static_cast<NodeId>(
                 rng.UniformInt(0, static_cast<int64_t>(kNodes) - 1)));
      ASSERT_NE(row, nullptr);
      row[0] += 0.25f;
    }
    ASSERT_TRUE(live->Publish(nullptr).ok());
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(live->version(), 13u);
}

TEST(AnnIndexTest, PatchMatchesFullBuildQuality) {
  // A patched index must keep serving sane results for the moved rows.
  EmbeddingStore before = MakeStore(1024, 16, 0x42);
  AnnBuildOptions opts;
  auto base = AnnIndex::Build(before, 0, opts);
  ASSERT_TRUE(base.ok());

  // "Move" rows 3 and 500 by rebuilding the store with fresh vectors there.
  Rng rng(0x43);
  EmbeddingStore::TableInit t;
  t.name = "click";
  auto nodes = before.RowNodes(0);
  t.row_to_node.assign(nodes.begin(), nodes.end());
  t.data = Tensor(before.NumRows(0), before.dim());
  auto src = before.Table(0);
  std::copy(src.begin(), src.end(), t.data.data());
  for (uint32_t moved : {3u, 500u}) {
    for (size_t j = 0; j < before.dim(); ++j) {
      t.data.data()[moved * before.dim() + j] = rng.UniformFloat(-1.0f, 1.0f);
    }
  }
  std::vector<EmbeddingStore::TableInit> tables;
  tables.push_back(std::move(t));
  auto after = EmbeddingStore::FromTables("ann", before.num_nodes(),
                                          std::move(tables));
  ASSERT_TRUE(after.ok());

  const std::vector<uint32_t> dirty = {3, 500};
  auto patched = AnnIndex::Patched(**base, *after, 0, dirty);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  EXPECT_EQ((*patched)->num_rows(), (*base)->num_rows());

  // The moved row must be findable: search with its own vector as query.
  std::vector<float> query(after->dim());
  after->DequantizeRow(0, 3, query.data());
  BlockScorer scorer(&*after, 0, query.data());
  std::vector<uint32_t> pool;
  (*patched)->Search(scorer, 32, {}, &pool, nullptr);
  EXPECT_NE(std::find(pool.begin(), pool.end(), 3u), pool.end())
      << "re-linked row unreachable after patch";
}

}  // namespace
}  // namespace hybridgnn
