// Micro benchmark for the ANN retrieval layer (DESIGN.md section 17):
//
//   build:  HNSW construction time over one embedding table (plus the
//           incremental-patch time for a small dirty set);
//   query:  single-query latency of the exact blocked scan vs the ANN
//           search + exact re-rank path, same TopKRecommender semantics,
//           plus recall@10 of ANN against the exact ranking.
//
// Reports build ms, per-query latency for both paths, speedup, recall@10,
// and writes bench-out/BENCH_micro_ann.json.
//
//   micro_ann [--rows N] [--dim N] [--queries N] [--ef N] [--m N] [--gate]
//
// --gate exits non-zero unless, at >= 200k rows, the ANN path answers a
// single query >= 5x faster than the exact scan (the median of 5
// interleaved exact/ANN latency ratios) with recall@10 >= 0.95 (ci_check.sh
// runs it with --gate). The gate measures the end-to-end recommender
// (filters, heap, re-rank included), not the bare index.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "serve/ann/ann_index.h"
#include "serve/embedding_store.h"
#include "serve/topk.h"
#include "tensor/tensor.h"

namespace hybridgnn {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
             .count() *
         1e-9;
}

EmbeddingStore MakeStore(size_t rows, size_t dim) {
  Rng rng(0xA22);
  std::vector<NodeId> identity(rows);
  for (NodeId v = 0; v < rows; ++v) identity[v] = v;
  EmbeddingStore::TableInit t;
  t.name = "click";
  t.row_to_node = identity;
  t.data = Tensor(rows, dim);
  for (size_t i = 0; i < t.data.size(); ++i) {
    t.data.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
  }
  std::vector<EmbeddingStore::TableInit> tables;
  tables.push_back(std::move(t));
  auto store = EmbeddingStore::FromTables("bench", rows, std::move(tables));
  if (!store.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", store.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(store).value();
}

std::vector<TopKQuery> MakeQueries(size_t n, size_t rows) {
  Rng rng(0xC0FFEE);
  std::vector<TopKQuery> queries(n);
  for (auto& q : queries) {
    q.node = static_cast<NodeId>(rng.UniformUint64(rows));
    q.rel = 0;
    q.k = 10;
  }
  return queries;
}

/// Ranked ids of `rec`'s answer to each of `queries`.
std::vector<std::vector<NodeId>> RankQueries(
    const TopKRecommender& rec, const std::vector<TopKQuery>& queries) {
  std::vector<std::vector<NodeId>> topk;
  for (const auto& q : queries) {
    auto r = rec.Recommend(q);
    if (!r.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    std::vector<NodeId> ids;
    ids.reserve(r->size());
    for (const Recommendation& rr : *r) ids.push_back(rr.node);
    topk.push_back(std::move(ids));
  }
  return topk;
}

/// Mean single-query latency (seconds) of `rec` over `queries`, one call at
/// a time (the serving-relevant number: tail latency of an individual
/// request, not batch throughput), repeated until ~min_seconds.
double MeanQuerySeconds(const TopKRecommender& rec,
                        const std::vector<TopKQuery>& queries,
                        double min_seconds) {
  size_t calls = 0;
  const auto t0 = Clock::now();
  do {
    for (const auto& q : queries) {
      auto r = rec.Recommend(q);
      if (!r.ok()) std::exit(1);
      ++calls;
    }
  } while (SecondsSince(t0) < min_seconds);
  return SecondsSince(t0) / static_cast<double>(calls);
}

double RecallAt10(const std::vector<std::vector<NodeId>>& exact,
                  const std::vector<std::vector<NodeId>>& approx) {
  double total = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    size_t hits = 0;
    for (NodeId v : approx[i]) {
      if (std::find(exact[i].begin(), exact[i].end(), v) != exact[i].end()) {
        ++hits;
      }
    }
    total += static_cast<double>(hits) /
             static_cast<double>(std::max<size_t>(1, exact[i].size()));
  }
  return exact.empty() ? 0.0 : total / static_cast<double>(exact.size());
}

int Main(int argc, char** argv) {
  size_t rows = 200000;
  size_t dim = 64;
  size_t num_queries = 32;
  size_t ef_search = 384;
  size_t M = 24;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rows" && i + 1 < argc) {
      rows = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--dim" && i + 1 < argc) {
      dim = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--queries" && i + 1 < argc) {
      num_queries =
          static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--ef" && i + 1 < argc) {
      ef_search = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--m" && i + 1 < argc) {
      M = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--gate") {
      gate = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--rows N] [--dim N] [--queries N] [--ef N] "
                   "[--m N] [--gate]\n",
                   argv[0]);
      return 2;
    }
  }

  EmbeddingStore store = MakeStore(rows, dim);
  std::printf("micro_ann: %zu rows x %zu dim (fp32 table %.1f MB)\n", rows,
              dim, rows * dim * 4.0 / (1024.0 * 1024.0));

  TopKOptions exact_opts;
  exact_opts.num_threads = 1;
  TopKRecommender exact(&store, nullptr, exact_opts);

  TopKOptions ann_opts = exact_opts;
  ann_opts.ann = true;
  ann_opts.ef_search = ef_search;
  // Denser graph than the library default (M=16): uniform random vectors
  // are the structureless worst case for graph ANN, and at 200k rows M=16
  // cannot reach 0.95 recall@10 inside the 5x latency budget (measured:
  // 0.94 at ef=512 and ~4.6x at ef=768). M=24 at ef=384 clears both bars
  // with margin; both knobs stay overridable for exploration.
  ann_opts.ann_build.M = M;
  const auto t_build = Clock::now();
  TopKRecommender approx(&store, nullptr, ann_opts);
  const double build_ms = SecondsSince(t_build) * 1000.0;
  if (!approx.ann_enabled() || approx.ann_indexes()[0] == nullptr) {
    std::fprintf(stderr,
                 "FATAL: ANN did not enable (rows below ann_min_rows?)\n");
    return 1;
  }
  const AnnIndex& index = *approx.ann_indexes()[0];
  std::printf("  hnsw build      : %9.0f ms (M=%zu, efC=%zu, %.1f MB "
              "adjacency, max level %d)\n",
              build_ms, index.options().M, index.options().ef_construction,
              index.MemoryBytes() / (1024.0 * 1024.0), index.max_level());

  // Incremental patch cost for a 0.1% dirty set (the streaming-publish
  // path), vs the full rebuild above.
  {
    std::vector<uint32_t> dirty;
    for (uint32_t r = 0; r < rows / 1000; ++r) {
      dirty.push_back(r * 997 % static_cast<uint32_t>(rows));
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    const auto t_patch = Clock::now();
    auto patched = AnnIndex::Patched(index, store, 0, dirty);
    const double patch_ms = SecondsSince(t_patch) * 1000.0;
    if (!patched.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   patched.status().ToString().c_str());
      return 1;
    }
    std::printf("  publish patch   : %9.1f ms for %zu dirty rows (%.0fx "
                "cheaper than rebuild)\n",
                patch_ms, dirty.size(),
                patch_ms > 0.0 ? build_ms / patch_ms : 0.0);
  }

  const auto queries = MakeQueries(num_queries, rows);
  const double recall =
      RecallAt10(RankQueries(exact, queries), RankQueries(approx, queries));
  // The exact and ANN timings alternate, so a slow stretch of a shared host
  // hits both sides of a ratio; the gate reads the median ratio. Recall is
  // deterministic (same queries, same index), so one pass measures it.
  const int kRepeats = 5;
  const double kMinSeconds = 0.25;
  std::vector<double> exact_s, ann_s, ratios;
  for (int r = 0; r < kRepeats; ++r) {
    exact_s.push_back(MeanQuerySeconds(exact, queries, kMinSeconds));
    ann_s.push_back(MeanQuerySeconds(approx, queries, kMinSeconds));
    ratios.push_back(ann_s.back() > 0.0 ? exact_s.back() / ann_s.back()
                                        : 0.0);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double exact_latency_s = median(exact_s);
  const double ann_latency_s = median(ann_s);
  const double speedup = median(ratios);
  std::printf("  exact scan      : %9.3f ms/query (median of %d)\n",
              exact_latency_s * 1000.0, kRepeats);
  std::printf("  ann + re-rank   : %9.3f ms/query (%.1fx median of %d ratios "
              "%.2f..%.2f, ef_search=%zu, recall@10 %.4f; gate >= 5x at "
              ">= 0.95)\n",
              ann_latency_s * 1000.0, speedup, kRepeats,
              *std::min_element(ratios.begin(), ratios.end()),
              *std::max_element(ratios.begin(), ratios.end()), ef_search,
              recall);

  uint64_t hash = index.ContentHash();
  {
    uint64_t bits;
    std::memcpy(&bits, &recall, sizeof(bits));
    hash = (hash ^ bits) * 1099511628211ull;
  }

  bench::BenchReport report("micro_ann");
  report.AddStage("build_ms", 1, build_ms, 0.0);
  report.AddStage("exact_query_ms", 1, exact_latency_s * 1000.0, 0.0);
  report.AddStage("ann_query_ms", 1, ann_latency_s * 1000.0, 0.0);
  report.AddStage("ann_speedup", 1, 0.0, speedup);
  report.AddStage("recall_at_10", 1, 0.0, recall);
  report.set_result_hash(hash);
  report.Write();

  if (gate) {
    if (rows < 200000) {
      std::fprintf(stderr,
                   "GATE FAILED: the ANN gate is defined at >= 200k rows "
                   "(got %zu) — a small table's exact scan is already "
                   "fast, making the speedup bar meaningless\n",
                   rows);
      return 1;
    }
    if (recall < 0.95) {
      std::fprintf(stderr,
                   "GATE FAILED: ANN recall@10 %.4f vs the exact scan "
                   "(required >= 0.95)\n",
                   recall);
      return 1;
    }
    if (speedup < 5.0) {
      std::fprintf(stderr,
                   "GATE FAILED: median ANN single-query speedup %.2fx over "
                   "the exact scan (required >= 5x)\n",
                   speedup);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace hybridgnn

int main(int argc, char** argv) { return hybridgnn::Main(argc, argv); }
