// Micro benchmark for the streaming-ingest subsystem: the cost of keeping
// embeddings fresh when a 1% edge delta arrives, measured two ways —
//
//   retrain:  the offline answer — fold the deltas into the graph, refit
//             the model from scratch and rebuild the serving store;
//   refresh:  the stream path — DynamicGraphOverlay::Apply + the
//             IncrementalRefresher's dirty-frontier SGNS update +
//             LiveEmbeddingStore::Publish.
//
// Also scores both stores on the streamed edges (RocAuc against sampled
// non-edges): the refreshed store must rank the new interactions above
// noise, the stale one by construction cannot have learned them. Reports
// ms per path, the speedup, both AUCs, and writes
// bench-out/BENCH_micro_stream.json, whose staging_hash field is an FNV-1a
// hash of every staging row after the refresh.
//
//   micro_stream [--users N] [--items N] [--degree N] [--gate]
//
// --gate exits non-zero unless the incremental refresh is >= 5x cheaper
// than the full retrain AND the refreshed AUC beats the stale AUC
// (ci_check.sh runs it with --gate).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "bench_json.h"
#include "common/rng.h"
#include "eval/metrics.h"
#include "graph/graph.h"
#include "graph/metapath.h"
#include "serve/checkpoint.h"
#include "serve/embedding_store.h"
#include "stream/live_store.h"
#include "stream/overlay.h"
#include "stream/refresher.h"

namespace hybridgnn {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
             .count() *
         1e-6;
}

struct Workload {
  MultiplexHeteroGraph base;          // first 99% of the interaction stream
  std::vector<GraphDelta> deltas;     // the trailing 1%, time-ordered
  size_t num_users = 0;
  size_t num_items = 0;
};

/// Synthetic time-ordered bipartite interaction log: users attach to items
/// with mild popularity skew (square of two uniforms biases low ids), the
/// trailing 1% becomes the delta stream.
Workload MakeWorkload(size_t users, size_t items, size_t degree) {
  Workload w;
  w.num_users = users;
  w.num_items = items;
  Rng rng(0x57AE);
  GraphBuilder b;
  (void)b.AddNodeType("user").value();
  (void)b.AddNodeType("item").value();
  (void)b.AddRelation("click").value();
  (void)b.AddNodes(0, users).value();
  (void)b.AddNodes(1, items).value();

  std::vector<std::pair<NodeId, NodeId>> log;
  std::vector<uint8_t> seen(users * items, 0);
  const size_t target = users * degree;
  while (log.size() < target) {
    const NodeId u = static_cast<NodeId>(rng.UniformUint64(users));
    const size_t skew = std::min(rng.UniformUint64(items),
                                 rng.UniformUint64(items));
    const NodeId i = static_cast<NodeId>(users + skew);
    if (seen[u * items + skew]) continue;
    seen[u * items + skew] = 1;
    log.emplace_back(u, i);
  }
  const size_t holdout = std::max<size_t>(1, log.size() / 100);
  const size_t split = log.size() - holdout;
  for (size_t e = 0; e < split; ++e) {
    Status st = b.AddEdge(log[e].first, log[e].second, 0);
    if (!st.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  for (size_t e = split; e < log.size(); ++e) {
    w.deltas.push_back(GraphDelta::AddEdge(log[e].first, log[e].second, 0,
                                           /*ts=*/e));
  }
  auto built = b.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", built.status().ToString().c_str());
    std::exit(1);
  }
  w.base = std::move(built).value();
  return w;
}

StatusOr<EmbeddingStore> TrainStore(const MultiplexHeteroGraph& g) {
  std::vector<MetapathScheme> schemes =
      DefaultSchemes(g, /*max_schemes_per_relation=*/2);
  HYBRIDGNN_ASSIGN_OR_RETURN(
      auto model, CreateModel("DeepWalk", schemes, /*seed=*/7, ModelBudget{}));
  HYBRIDGNN_RETURN_IF_ERROR(model->Fit(g));
  return BuildStore(*model, g);
}

/// AUC of the streamed edges against sampled never-seen user-item pairs,
/// scored by dot product under the click relation.
double DeltaAuc(const EmbeddingStore& store, const Workload& w,
                const DynamicGraphOverlay& truth) {
  std::vector<double> pos, neg;
  auto score = [&](NodeId u, NodeId i, std::vector<double>& out) {
    const float* a = store.Lookup(u, 0);
    const float* c = store.Lookup(i, 0);
    if (a == nullptr || c == nullptr) return;
    double acc = 0.0;
    for (size_t j = 0; j < store.dim(); ++j) acc += a[j] * c[j];
    out.push_back(acc);
  };
  for (const GraphDelta& d : w.deltas) score(d.src, d.dst, pos);
  Rng rng(0xBAD5EED);
  const size_t want = pos.size() * 4;
  while (neg.size() < want) {
    const NodeId u = static_cast<NodeId>(rng.UniformUint64(w.num_users));
    const NodeId i = static_cast<NodeId>(w.num_users +
                                         rng.UniformUint64(w.num_items));
    if (truth.HasEdge(u, i, 0)) continue;
    score(u, i, neg);
  }
  return RocAuc(pos, neg);
}

/// Fnv1a64 over every staging row, table by table in row order: the bits
/// the refresh left, so a refresher refactor can be checked for
/// bit-identity on this workload.
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

int Main(int argc, char** argv) {
  size_t users = 400;
  size_t items = 400;
  size_t degree = 24;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--users" && i + 1 < argc) {
      users = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--items" && i + 1 < argc) {
      items = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--degree" && i + 1 < argc) {
      degree = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--gate") {
      gate = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--users N] [--items N] [--degree N] [--gate]\n",
                   argv[0]);
      return 2;
    }
  }

  Workload w = MakeWorkload(users, items, degree);
  std::printf("micro_stream: %zu users x %zu items, %zu base edges, "
              "%zu streamed (%.1f%%)\n",
              users, items, w.base.num_edges(), w.deltas.size(),
              100.0 * w.deltas.size() /
                  (w.base.num_edges() + w.deltas.size()));

  // Offline checkpoint on the 99% graph — what serving starts from.
  auto stale = TrainStore(w.base);
  if (!stale.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", stale.status().ToString().c_str());
    return 1;
  }

  // --- path 1: full retrain on base + deltas (compacted) ---
  const auto retrain_t0 = Clock::now();
  DynamicGraphOverlay retrain_overlay(&w.base);
  auto applied = retrain_overlay.Apply(w.deltas);
  if (!applied.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", applied.status().ToString().c_str());
    return 1;
  }
  auto full_graph = retrain_overlay.Compact();
  if (!full_graph.ok()) {
    std::fprintf(stderr, "FATAL: %s\n",
                 full_graph.status().ToString().c_str());
    return 1;
  }
  auto retrained = TrainStore(*full_graph);
  if (!retrained.ok()) {
    std::fprintf(stderr, "FATAL: %s\n",
                 retrained.status().ToString().c_str());
    return 1;
  }
  const double retrain_ms = MsSince(retrain_t0);

  // --- path 2: incremental refresh through the stream subsystem ---
  DynamicGraphOverlay overlay(&w.base);
  auto live = LiveEmbeddingStore::Create(*stale, &w.base, TopKOptions{});
  if (!live.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", live.status().ToString().c_str());
    return 1;
  }
  // Freshness-targeted config: the contract being measured is "the streamed
  // interactions become rankable", so keep the write set tight (touched
  // endpoints only), emphasize the new edges, and nudge gently — a broad
  // frontier with aggressive walks re-trains half the graph, which is the
  // retrain path's job.
  RefreshOptions refresh_options;
  refresh_options.k_hops = 0;
  refresh_options.walks_per_dirty_node = 2;
  refresh_options.walk_length = 4;
  refresh_options.direct_edge_copies = 6;
  refresh_options.sgd_rounds = 2;
  refresh_options.learning_rate = 0.03f;
  IncrementalRefresher refresher(&overlay, live->get(), refresh_options);
  const auto refresh_t0 = Clock::now();
  auto stats = refresher.IngestBatch(w.deltas);
  if (!stats.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  const double refresh_ms = MsSince(refresh_t0);
  const double speedup = refresh_ms > 0.0 ? retrain_ms / refresh_ms : 0.0;

  auto version = (*live)->Acquire();
  const double stale_auc = DeltaAuc(*stale, w, overlay);
  const double fresh_auc = DeltaAuc(version->store, w, overlay);
  const double retrain_auc = DeltaAuc(*retrained, w, overlay);

  std::printf("  full retrain      : %10.2f ms (AUC on deltas %.4f)\n",
              retrain_ms, retrain_auc);
  std::printf("  incremental refresh: %9.2f ms (AUC on deltas %.4f, "
              "%zu dirty nodes, %zu pairs)\n",
              refresh_ms, fresh_auc, stats->dirty_nodes,
              stats->pairs_trained);
  std::printf("  stale checkpoint AUC on deltas: %.4f\n", stale_auc);
  const uint64_t staging_hash = StagingHash(**live);
  std::printf("  staging hash after refresh: %016" PRIx64 "\n", staging_hash);
  std::printf("  speedup %.1fx (gate >= 5x), freshness %+0.4f AUC "
              "(gate > 0)\n",
              speedup, fresh_auc - stale_auc);

  uint64_t hash = 1469598103934665603ull;
  for (double v : {stale_auc, fresh_auc}) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    hash = (hash ^ bits) * 1099511628211ull;
  }

  bench::BenchReport report("micro_stream");
  report.AddStage("full_retrain", 1, retrain_ms, 0.0);
  report.AddStage("incremental_refresh", 1, refresh_ms, 0.0);
  report.AddStage("speedup", 1, 0.0, speedup);
  report.AddStage("stale_auc", 1, 0.0, stale_auc);
  report.AddStage("fresh_auc", 1, 0.0, fresh_auc);
  report.set_result_hash(hash);
  report.AddHash("staging_hash", staging_hash);
  report.Write();

  if (gate) {
    if (speedup < 5.0) {
      std::fprintf(stderr,
                   "GATE FAILED: incremental refresh is only %.1fx cheaper "
                   "than retraining (required >= 5x)\n",
                   speedup);
      return 1;
    }
    if (fresh_auc <= stale_auc) {
      std::fprintf(stderr,
                   "GATE FAILED: refreshed AUC %.4f does not beat the stale "
                   "checkpoint's %.4f on streamed edges\n",
                   fresh_auc, stale_auc);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace hybridgnn

int main(int argc, char** argv) { return hybridgnn::Main(argc, argv); }
