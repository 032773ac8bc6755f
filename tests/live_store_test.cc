// LiveEmbeddingStore tests: staging-until-publish visibility, RCU-style
// snapshot pinning across publishes, exclusion-filter rebuild on swap, the
// RecommendService live-source path, and the headline race surface —
// concurrent ingest/publish against serving reads (run under TSan by
// scripts/tsan_check.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/embedding_store.h"
#include "serve/service.h"
#include "serve/topk.h"
#include "stream/delta_log.h"
#include "stream/live_store.h"
#include "stream/overlay.h"
#include "stream/refresher.h"
#include "tensor/tensor.h"

namespace hybridgnn {
namespace {

/// Bipartite fixture: users 0-3, items 4-7, relations view / buy.
MultiplexHeteroGraph MakeGraph() {
  GraphBuilder b;
  EXPECT_TRUE(b.AddNodeType("user").ok());
  EXPECT_TRUE(b.AddNodeType("item").ok());
  EXPECT_TRUE(b.AddRelation("view").ok());
  EXPECT_TRUE(b.AddRelation("buy").ok());
  EXPECT_TRUE(b.AddNodes(0, 4).ok());
  EXPECT_TRUE(b.AddNodes(1, 4).ok());
  const NodeId view_edges[][2] = {{0, 4}, {0, 5}, {1, 4}, {1, 6},
                                  {2, 5}, {2, 7}, {3, 6}};
  for (const auto& e : view_edges) EXPECT_TRUE(b.AddEdge(e[0], e[1], 0).ok());
  EXPECT_TRUE(b.AddEdge(0, 4, 1).ok());
  EXPECT_TRUE(b.AddEdge(2, 7, 1).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

EmbeddingStore MakeStore(const MultiplexHeteroGraph& g, size_t dim,
                         uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> identity(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) identity[v] = v;
  std::vector<EmbeddingStore::TableInit> tables;
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
  auto store =
      EmbeddingStore::FromTables("live", g.num_nodes(), std::move(tables));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

std::unique_ptr<LiveEmbeddingStore> MakeLive(const MultiplexHeteroGraph& g,
                                             const EmbeddingStore& store,
                                             size_t threads = 1) {
  TopKOptions options;
  options.num_threads = threads;
  auto live = LiveEmbeddingStore::Create(store, &g, options);
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  return std::move(live).value();
}

bool Recommends(const TopKRecommender& rec, NodeId user, NodeId item) {
  TopKQuery q;
  q.node = user;
  q.rel = 0;
  q.k = 8;
  q.candidate_type = 1;
  auto result = rec.Recommend(q);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  for (const Recommendation& r : *result) {
    if (r.node == item) return true;
  }
  return false;
}

TEST(LiveStoreTest, StagingInvisibleUntilPublish) {
  MultiplexHeteroGraph g = MakeGraph();
  EmbeddingStore store = MakeStore(g, 8, 3);
  auto live = MakeLive(g, store);
  EXPECT_EQ(live->version(), 1u);

  auto v1 = live->Acquire();
  ASSERT_NE(v1, nullptr);
  const float before = v1->store.Lookup(4, 0)[0];

  float* row = live->MutableRow(0, 4);
  ASSERT_NE(row, nullptr);
  row[0] = before + 42.0f;
  // The published snapshot is a frozen copy — staging writes do not leak.
  EXPECT_EQ(live->Acquire()->store.Lookup(4, 0)[0], before);

  ASSERT_TRUE(live->Publish(nullptr).ok());
  EXPECT_EQ(live->version(), 2u);
  EXPECT_EQ(live->Acquire()->store.Lookup(4, 0)[0], before + 42.0f);
  // The pinned old version still reads its own bits.
  EXPECT_EQ(v1->store.Lookup(4, 0)[0], before);
  EXPECT_EQ(v1->sequence, 1u);
}

TEST(LiveStoreTest, EnsureRowMakesUnknownNodeServable) {
  MultiplexHeteroGraph g = MakeGraph();
  EmbeddingStore store = MakeStore(g, 8, 5);
  auto live = MakeLive(g, store);

  EXPECT_EQ(live->Row(0, 99), nullptr);
  auto row = live->EnsureRow(0, 99);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_TRUE(row->appended);
  const float* data = live->Row(0, 99);
  ASSERT_NE(data, nullptr);
  for (size_t j = 0; j < live->dim(); ++j) EXPECT_EQ(data[j], 0.0f);
  // Idempotent: same row on re-ensure, and not reported as fresh.
  auto again = live->EnsureRow(0, 99);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->row, row->row);
  EXPECT_FALSE(again->appended);

  ASSERT_TRUE(live->Publish(nullptr).ok());
  EXPECT_NE(live->Acquire()->store.Lookup(99, 0), nullptr);
}

TEST(LiveStoreTest, FilterRebuildOnSwapHidesStreamedEdges) {
  MultiplexHeteroGraph g = MakeGraph();
  EmbeddingStore store = MakeStore(g, 8, 7);
  auto live = MakeLive(g, store);
  DynamicGraphOverlay overlay(&g);

  // Before the stream: item 7 is not a training neighbor of user 0, so it
  // is a legal recommendation; item 4 is excluded by the base graph.
  {
    auto version = live->Acquire();
    EXPECT_TRUE(Recommends(*version->recommender, 0, 7));
    EXPECT_FALSE(Recommends(*version->recommender, 0, 4));
  }
  auto applied =
      overlay.Apply(std::vector<GraphDelta>{GraphDelta::AddEdge(0, 7, 0)});
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_TRUE(live->Publish(&overlay).ok());
  {
    auto version = live->Acquire();
    ASSERT_NE(version->filter, nullptr);
    EXPECT_EQ(version->filter->num_edges(), 1u);
    // The streamed interaction is now "already has" — filtered out.
    EXPECT_FALSE(Recommends(*version->recommender, 0, 7));
    EXPECT_FALSE(Recommends(*version->recommender, 0, 4));
    EXPECT_TRUE(Recommends(*version->recommender, 0, 6));
  }
}

TEST(LiveStoreTest, ServiceOnLiveSourceSeesPublishes) {
  MultiplexHeteroGraph g = MakeGraph();
  EmbeddingStore store = MakeStore(g, 8, 9);
  auto live = MakeLive(g, store);
  DynamicGraphOverlay overlay(&g);
  IncrementalRefresher refresher(&overlay, live.get(), RefreshOptions{});

  ServiceOptions options;
  options.num_threads = 2;
  options.batch_window_ms = 0.2;
  RecommendService service(live.get(), options);

  TopKQuery q;
  q.node = 0;
  q.rel = 0;
  q.k = 8;
  q.candidate_type = 1;
  auto contains = [&](NodeId item) {
    RecommendResponse resp = service.Call(q);
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    for (const auto& r : resp.items) {
      if (r.node == item) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains(7));
  auto stats = refresher.IngestBatch(
      std::vector<GraphDelta>{GraphDelta::AddEdge(0, 7, 0)});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The very next call scores against the refreshed snapshot: the streamed
  // edge is excluded without restarting the service.
  EXPECT_FALSE(contains(7));
}

TEST(LiveStoreTest, CosineNormCarryForwardMatchesFullRecompute) {
  // The O(touched * dim) norm maintenance on Publish must be invisible:
  // every published recommender's row_norms() has to equal (exactly, float
  // for float) what a from-scratch recommender computes over the same
  // published tables. Exercises all three carry paths — touched rows
  // (recomputed), untouched rows (carried), appended rows (beyond the
  // previous norm vector, always recomputed).
  MultiplexHeteroGraph g = MakeGraph();
  EmbeddingStore store = MakeStore(g, 12, 77);
  TopKOptions options;
  options.num_threads = 1;
  options.cosine = true;
  auto live = LiveEmbeddingStore::Create(store, &g, options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  auto expect_norms_match_recompute = [&](const char* round) {
    auto version = (*live)->Acquire();
    ASSERT_NE(version->recommender, nullptr) << round;
    TopKRecommender fresh(&version->store, &g, options);
    const auto& carried = version->recommender->row_norms();
    const auto& computed = fresh.row_norms();
    ASSERT_EQ(carried.size(), computed.size()) << round;
    for (size_t r = 0; r < carried.size(); ++r) {
      ASSERT_EQ(carried[r].size(), computed[r].size())
          << round << " relation " << r;
      for (size_t i = 0; i < carried[r].size(); ++i) {
        EXPECT_EQ(carried[r][i], computed[r][i])
            << round << " relation " << r << " row " << i;
      }
    }
  };

  // Round 1: rescale one row, append and fill a row for a streamed-in node.
  float* touched = (*live)->MutableRow(0, 2);
  ASSERT_NE(touched, nullptr);
  for (size_t j = 0; j < (*live)->dim(); ++j) touched[j] *= 3.0f;
  auto ensured = (*live)->EnsureRow(0, 42);
  ASSERT_TRUE(ensured.ok()) << ensured.status().ToString();
  float* appended = (*live)->MutableRow(0, 42);
  ASSERT_NE(appended, nullptr);
  for (size_t j = 0; j < (*live)->dim(); ++j) {
    appended[j] = 0.25f * static_cast<float>(j + 1);
  }
  ASSERT_TRUE((*live)->Publish(nullptr).ok());
  expect_norms_match_recompute("round 1 (touch + append)");

  // Round 2: publish with nothing touched — every norm is carried.
  ASSERT_TRUE((*live)->Publish(nullptr).ok());
  expect_norms_match_recompute("round 2 (no-op publish)");

  // Round 3: dirty a row under the *other* relation only.
  float* buy_row = (*live)->MutableRow(1, 5);
  ASSERT_NE(buy_row, nullptr);
  for (size_t j = 0; j < (*live)->dim(); ++j) buy_row[j] = -buy_row[j];
  ASSERT_TRUE((*live)->Publish(nullptr).ok());
  expect_norms_match_recompute("round 3 (second relation)");
}

TEST(LiveStoreTest, ConcurrentIngestAndServingAgree) {
  MultiplexHeteroGraph g = MakeGraph();
  EmbeddingStore store = MakeStore(g, 16, 11);
  auto live = MakeLive(g, store);
  DynamicGraphOverlay overlay(&g);

  constexpr int kPublishes = 60;
  constexpr int kReaderLoops = 120;
  std::atomic<bool> done{false};

  // Writer: the single-ingest-thread contract — mutate staging, publish.
  std::thread writer([&] {
    Rng rng(23);
    for (int i = 0; i < kPublishes; ++i) {
      for (RelationId r = 0; r < live->num_relations(); ++r) {
        const NodeId v = static_cast<NodeId>(rng.UniformUint64(8));
        float* row = live->MutableRow(r, v);
        ASSERT_NE(row, nullptr);
        for (size_t j = 0; j < live->dim(); ++j) row[j] += 0.001f;
      }
      ASSERT_TRUE(live->Publish(&overlay).ok());
    }
    done.store(true, std::memory_order_release);
  });

  // Readers: pin a snapshot, score a batch against it, verify the pinned
  // version stays self-consistent while publishes race past it.
  std::vector<std::thread> readers;
  std::atomic<uint64_t> max_seen{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::vector<TopKQuery> queries;
      for (NodeId u = 0; u < 4; ++u) {
        TopKQuery q;
        q.node = u;
        q.rel = t % 2;
        q.k = 4;
        q.candidate_type = 1;
        queries.push_back(q);
      }
      for (int i = 0; i < kReaderLoops || !done.load(std::memory_order_acquire);
           ++i) {
        RecommenderSource::Pinned pinned = live->AcquireRecommender();
        ASSERT_NE(pinned.recommender, nullptr);
        auto results = pinned.recommender->RecommendBatch(queries, nullptr);
        ASSERT_EQ(results.size(), queries.size());
        for (const auto& r : results) {
          ASSERT_TRUE(r.ok()) << r.status().ToString();
        }
        auto version = live->Acquire();
        uint64_t seen = max_seen.load(std::memory_order_relaxed);
        while (version->sequence > seen &&
               !max_seen.compare_exchange_weak(seen, version->sequence,
                                               std::memory_order_relaxed)) {
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(live->version(), static_cast<uint64_t>(kPublishes) + 1);
  EXPECT_GT(max_seen.load(), 1u);
}

// Publish refills a retired Version's tables. A Version a reader still
// holds is never the one refilled: its rows stay as published while the
// writer publishes past it. A reader that drops the last reference of a
// retired Version hands its tables to the writer through the spare list
// (the racy half of this test, for TSan).
TEST(LiveStoreTest, RecycledTablesLeaveAHeldVersionIntact) {
  MultiplexHeteroGraph g = MakeGraph();
  EmbeddingStore store = MakeStore(g, 8, 13);
  auto live = MakeLive(g, store);
  const size_t dim = live->dim();
  auto publish = [&] {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      float* row = live->MutableRow(0, v);
      ASSERT_NE(row, nullptr);
      for (size_t j = 0; j < dim; ++j) row[j] += 1.0f;
    }
    ASSERT_TRUE(live->Publish(nullptr).ok());
  };

  std::atomic<int> phase{0};  // 1: v1 held, 2: churn, 3: stop
  std::atomic<int> mismatches{0};
  std::thread reader([&] {
    const auto v1 = live->Acquire();
    const std::vector<float> published(v1->store.Table(0).begin(),
                                       v1->store.Table(0).end());
    auto intact = [&] {
      return std::memcmp(v1->store.Table(0).data(), published.data(),
                         published.size() * sizeof(float)) == 0;
    };
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) < 2) std::this_thread::yield();
    if (!intact()) mismatches.fetch_add(1);
    while (phase.load(std::memory_order_acquire) < 3) {
      // Pin the front and drop it, sometimes as its last holder.
      const auto front = live->Acquire();
      volatile float sink = front->store.Table(0)[0];
      (void)sink;
      if (!intact()) mismatches.fetch_add(1);
    }
  });
  while (phase.load(std::memory_order_acquire) < 1) std::this_thread::yield();

  // Twice past the held v1: v3 retires v2 (no one holds it), so v4 refills
  // v2's tables.
  publish();
  const uintptr_t v2_table =
      reinterpret_cast<uintptr_t>(live->Acquire()->store.Table(0).data());
  publish();
  publish();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(live->Acquire()->store.Table(0).data()),
            v2_table);
  phase.store(2, std::memory_order_release);
  for (int i = 0; i < 20; ++i) publish();
  phase.store(3, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(live->version(), 24u);
  const auto front = live->Acquire();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(std::memcmp(front->store.Lookup(v, 0), live->Row(0, v),
                          dim * sizeof(float)),
              0);
  }
}

}  // namespace
}  // namespace hybridgnn
