// Online top-K recommendation server: train a model (or load a frozen
// `.hgc` checkpoint) and answer queries from stdin through the micro-
// batching RecommendService.
//
//   hybridgnn_serve --graph g.txt [--model HybridGNN] [--seed N]
//                   [--load ckpt.hgc] [--save ckpt.hgc] [--copy 1]
//                   [--quantize fp32|int8]
//                   [--ann 1] [--ef-search 64] [--over-fetch 4]
//                   [--k 10] [--cosine 1] [--threads N]
//                   [--window-ms 1.0] [--max-batch 64]
//                   [--deadline-ms 0] [--max-queue 0] [--cache 0]
//                   [--stream deltas.hgd] [--stream-batch 64]
//                   [--stream-khops 1] [--stream-lr 0.05]
//                   [--metrics-out metrics.json]
//
// --quantize int8 converts the (loaded or freshly trained) fp32 store to a
// per-row int8 serving copy scanned in place by the dequant-and-score
// kernel: a quarter of the memory traffic at a small recall cost (see
// DESIGN.md section 15); fp32 (the default) keeps the store as is. With
// --save the checkpoint is written after conversion, so the file on disk
// is a v2 int8 `.hgc`.
// Incompatible with --stream (the live refresher trains on fp32 rows).
//
// --ann builds an HNSW index per relation at startup (and rebuilds or
// incrementally patches it on every streaming publish) so each query
// searches a sublinear candidate pool instead of scanning the whole
// table; the pool is re-ranked through the exact scoring kernels, so
// result semantics are unchanged (see DESIGN.md section 17). --ef-search
// is the search beam width / pool floor, --over-fetch multiplies k into
// the pool so exclusion filters don't starve the top-k. Small tables
// always take the exact scan.
//
// --deadline-ms / --max-queue / --cache are the admission controls:
// default per-request deadline, load-shedding queue cap, and warm
// result-cache capacity (entries), all off (0) by default.
//
// --metrics-out dumps the process-wide observability registry (counters,
// gauges, serve/request_latency stage histogram) as JSON on exit.
//
// With --load pointing at an existing checkpoint the model is NOT retrained
// — the tables come straight off the file (zero-copy mmap unless --copy 1).
// Otherwise the model trains on the full graph and, with --save, freezes
// its tables to the given path for the next run.
//
// --stream turns on the online path: the file (binary .hgd or the text
// format, see stream/delta_log.h) is loaded as a queue of timestamped graph
// deltas, serving goes through a LiveEmbeddingStore, and the `ingest`
// command applies the next batch — incremental refresh + atomic store swap,
// so the very next query scores against the updated embeddings with the
// streamed edges excluded from results.
//
// Query loop (stdin, one query per line):
//   <node-id> <relation-name-or-id> [k]   top-k recommendations
//   ingest [n]                            apply next n deltas (--stream)
//   metrics                               print serving counters/latency
//   quit                                  exit (EOF works too)

#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/registry.h"
#include "common/string_util.h"
#include "graph/graph_io.h"
#include "graph/metapath.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/service.h"
#include "serve/store_model.h"
#include "stream/refresher.h"

using namespace hybridgnn;

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      flags[argv[i] + 2] = argv[i + 1];
    }
  }
  return flags;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

/// Serving-side candidate typing: recommend nodes of the type the query
/// node actually links to under this relation (e.g. a user querying `click`
/// gets items, not other users). Falls back to "all rows" for isolated
/// nodes.
NodeTypeId InferCandidateType(const MultiplexHeteroGraph& g, NodeId node,
                              RelationId rel) {
  if (node >= g.num_nodes() || rel >= g.num_relations()) {
    return kInvalidNodeType;
  }
  auto nbrs = g.Neighbors(node, rel);
  return nbrs.empty() ? kInvalidNodeType : g.node_type(nbrs.front());
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv);
  if (!flags.count("graph")) {
    std::fprintf(stderr,
                 "usage: %s --graph <file> [--model NAME] [--load ckpt.hgc] "
                 "[--save ckpt.hgc] [--copy 1] [--quantize fp32|int8] "
                 "[--ann 1] [--ef-search N] [--over-fetch N] "
                 "[--k N] [--cosine 1] "
                 "[--threads N] [--window-ms F] [--max-batch N] "
                 "[--deadline-ms F] [--max-queue N] [--cache N] [--seed N] "
                 "[--stream deltas.hgd] [--stream-batch N] "
                 "[--stream-khops N] [--stream-lr F] [--metrics-out FILE]\n",
                 argv[0]);
    return 2;
  }
  auto graph = LoadGraph(flags["graph"]);
  if (!graph.ok()) return Fail(graph.status());

  // --- obtain an EmbeddingStore: load a checkpoint, or train + freeze ---
  std::shared_ptr<const EmbeddingStore> store;
  if (flags.count("load")) {
    const LoadMode mode = flags.count("copy") && flags["copy"] != "0"
                              ? LoadMode::kCopy
                              : LoadMode::kMmap;
    auto loaded = LoadCheckpoint(flags["load"], mode);
    if (!loaded.ok()) return Fail(loaded.status());
    store = std::make_shared<EmbeddingStore>(std::move(loaded).value());
    std::printf("loaded %s: model=%s, %zu relations, %zu nodes, dim=%zu%s\n",
                flags["load"].c_str(), store->model_name().c_str(),
                store->num_relations(), store->num_nodes(), store->dim(),
                store->mmapped() ? " (mmap, zero-copy)" : " (copied)");
  } else {
    const std::string model_name =
        flags.count("model") ? flags["model"] : "HybridGNN";
    const uint64_t seed =
        flags.count("seed") ? ParseInt64(flags["seed"]).value_or(1) : 1;
    std::vector<MetapathScheme> schemes =
        DefaultSchemes(*graph, /*max_schemes_per_relation=*/2);
    auto model = CreateModel(model_name, schemes, seed, ModelBudget{});
    if (!model.ok()) return Fail(model.status());
    std::printf("training %s on %zu nodes / %zu edges...\n",
                model_name.c_str(), graph->num_nodes(), graph->num_edges());
    Status st = (*model)->Fit(*graph);
    if (!st.ok()) return Fail(st);
    auto built = BuildStore(**model, *graph);
    if (!built.ok()) return Fail(built.status());
    store = std::make_shared<EmbeddingStore>(std::move(built).value());
  }

  // --- optional quantization of the serving copy ---
  if (flags.count("quantize") && flags["quantize"] != "fp32") {
    if (flags.count("stream")) {
      return Fail(Status::InvalidArgument(
          "--quantize is incompatible with --stream: the incremental "
          "refresher trains on fp32 staging rows"));
    }
    auto dtype = ParseStoreDType(flags["quantize"]);
    if (!dtype.ok()) return Fail(dtype.status());
    auto quantized = EmbeddingStore::Quantized(*store);
    if (!quantized.ok()) return Fail(quantized.status());
    store = std::make_shared<EmbeddingStore>(std::move(quantized).value());
    std::printf("quantized store to %s (%zux less table memory)\n",
                StoreDTypeName(*dtype),
                4 / StoreDTypeBytes(*dtype));
  }
  if (flags.count("save")) {
    Status ws = WriteCheckpoint(*store, flags["save"]);
    if (!ws.ok()) return Fail(ws);
    std::printf("froze embeddings (%s) to %s\n",
                StoreDTypeName(store->dtype()), flags["save"].c_str());
  }

  // --- retrieval engine + micro-batching service ---
  TopKOptions topk;
  topk.cosine = flags.count("cosine") && flags["cosine"] != "0";
  topk.ann = flags.count("ann") && flags["ann"] != "0";
  if (flags.count("ef-search")) {
    topk.ef_search =
        static_cast<size_t>(ParseInt64(flags["ef-search"]).value_or(64));
  }
  if (flags.count("over-fetch")) {
    topk.over_fetch =
        static_cast<size_t>(ParseInt64(flags["over-fetch"]).value_or(4));
  }
  if (flags.count("threads")) {
    topk.num_threads =
        static_cast<size_t>(ParseInt64(flags["threads"]).value_or(0));
  }
  TopKRecommender recommender(store.get(), &*graph, topk);
  if (recommender.ann_enabled()) {
    size_t indexed = 0, index_bytes = 0;
    for (const auto& index : recommender.ann_indexes()) {
      if (index != nullptr) {
        ++indexed;
        index_bytes += index->MemoryBytes();
      }
    }
    std::printf(
        "ann: indexed %zu/%zu relations (%.1f MiB adjacency, ef_search=%zu, "
        "over_fetch=%zu)\n",
        indexed, store->num_relations(),
        static_cast<double>(index_bytes) / (1024.0 * 1024.0), topk.ef_search,
        topk.over_fetch);
  }
  ServiceOptions service_options;
  service_options.num_threads = topk.num_threads;
  if (flags.count("window-ms")) {
    service_options.batch_window_ms =
        ParseDouble(flags["window-ms"]).value_or(1.0);
  }
  if (flags.count("max-batch")) {
    service_options.max_batch_size =
        static_cast<size_t>(ParseInt64(flags["max-batch"]).value_or(64));
  }
  if (flags.count("deadline-ms")) {
    service_options.default_deadline_ms =
        ParseDouble(flags["deadline-ms"]).value_or(0.0);
  }
  if (flags.count("max-queue")) {
    service_options.max_queue_depth =
        static_cast<size_t>(ParseInt64(flags["max-queue"]).value_or(0));
  }
  if (flags.count("cache")) {
    service_options.result_cache_capacity =
        static_cast<size_t>(ParseInt64(flags["cache"]).value_or(0));
  }

  // --- optional streaming path: delta queue + live store + refresher ---
  std::vector<GraphDelta> delta_queue;
  size_t delta_cursor = 0;
  size_t stream_batch = 64;
  std::unique_ptr<DynamicGraphOverlay> overlay;
  std::unique_ptr<LiveEmbeddingStore> live;
  std::unique_ptr<IncrementalRefresher> refresher;
  if (flags.count("stream")) {
    auto deltas = LoadDeltaLog(flags["stream"], *graph);
    if (!deltas.ok()) return Fail(deltas.status());
    delta_queue = std::move(deltas).value();
    if (flags.count("stream-batch")) {
      stream_batch =
          static_cast<size_t>(ParseInt64(flags["stream-batch"]).value_or(64));
    }
    overlay = std::make_unique<DynamicGraphOverlay>(&*graph);
    auto created = LiveEmbeddingStore::Create(*store, &*graph, topk);
    if (!created.ok()) return Fail(created.status());
    live = std::move(created).value();
    RefreshOptions refresh;
    if (flags.count("stream-khops")) {
      refresh.k_hops =
          static_cast<size_t>(ParseInt64(flags["stream-khops"]).value_or(1));
    }
    if (flags.count("stream-lr")) {
      refresh.learning_rate = static_cast<float>(
          ParseDouble(flags["stream-lr"]).value_or(0.05));
    }
    refresher =
        std::make_unique<IncrementalRefresher>(overlay.get(), live.get(),
                                               refresh);
    std::printf("streaming: %zu deltas queued from %s (batch %zu)\n",
                delta_queue.size(), flags["stream"].c_str(), stream_batch);
  }

  // Live mode serves through the swap-on-publish store; static mode keeps
  // the frozen recommender.
  std::unique_ptr<RecommendService> service;
  if (live != nullptr) {
    service = std::make_unique<RecommendService>(live.get(), service_options);
  } else {
    service =
        std::make_unique<RecommendService>(&recommender, service_options);
  }
  const size_t default_k =
      flags.count("k")
          ? static_cast<size_t>(ParseInt64(flags["k"]).value_or(10))
          : 10;

  std::printf("ready — '<node> <relation> [k]', 'metrics', 'quit'\n");
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "quit" || line == "exit") break;
    if (line == "metrics") {
      std::printf("%s\n", service->metrics().ToString().c_str());
      continue;
    }
    if (line.rfind("ingest", 0) == 0) {
      if (refresher == nullptr) {
        std::printf("? no --stream file loaded\n");
        continue;
      }
      std::istringstream in(line);
      std::string cmd;
      in >> cmd;
      // Optional count: a failed extraction zeroes the target (C++11), so
      // parse into a temporary to keep the --stream-batch default on bare
      // `ingest`.
      size_t n = stream_batch;
      if (size_t parsed = 0; in >> parsed) n = parsed;
      n = std::min(n, delta_queue.size() - delta_cursor);
      if (n == 0) {
        std::printf("stream drained (%zu deltas applied)\n", delta_cursor);
        continue;
      }
      auto stats = refresher->IngestBatch(
          std::span<const GraphDelta>(delta_queue.data() + delta_cursor, n));
      if (!stats.ok()) {
        std::printf("! %s\n", stats.status().ToString().c_str());
        continue;
      }
      delta_cursor += n;
      std::printf(
          "ingested %zu deltas (+%zu edges, +%zu nodes, %zu dupes) in "
          "%.2f ms: %zu dirty nodes, %zu pairs trained, store v%llu "
          "(%zu queued)\n",
          n, stats->edges_added, stats->nodes_added,
          stats->duplicates_ignored, stats->elapsed_ms, stats->dirty_nodes,
          stats->pairs_trained,
          static_cast<unsigned long long>(stats->published_version),
          delta_queue.size() - delta_cursor);
      continue;
    }
    std::istringstream in(line);
    uint64_t node = 0;
    std::string rel_token;
    size_t k = default_k;
    if (!(in >> node >> rel_token)) {
      std::printf("? expected: <node-id> <relation-name-or-id> [k]\n");
      continue;
    }
    if (size_t parsed = 0; in >> parsed) k = parsed;
    RelationId rel = store->FindRelation(rel_token);
    if (rel == kInvalidRelation) {
      auto parsed = ParseInt64(rel_token);
      if (parsed.ok() && *parsed >= 0 &&
          static_cast<size_t>(*parsed) < store->num_relations()) {
        rel = static_cast<RelationId>(*parsed);
      } else {
        std::printf("? unknown relation '%s'\n", rel_token.c_str());
        continue;
      }
    }
    TopKQuery q;
    q.node = static_cast<NodeId>(node);
    q.rel = rel;
    q.k = k;
    q.candidate_type = InferCandidateType(*graph, q.node, rel);
    RecommendResponse resp = service->Call(q);
    if (!resp.status.ok()) {
      std::printf("! %s\n", resp.status.ToString().c_str());
      continue;
    }
    std::printf("top-%zu for node %llu under '%s' (%.3f ms):\n", q.k,
                static_cast<unsigned long long>(node),
                store->relation_name(rel).c_str(), resp.latency_ms);
    for (size_t i = 0; i < resp.items.size(); ++i) {
      std::printf("  %2zu. node %-8u score %.6f\n", i + 1,
                  resp.items[i].node, resp.items[i].score);
    }
  }

  std::printf("final %s\n", service->metrics().ToString().c_str());
  if (flags.count("metrics-out")) {
    Status st = obs::WriteJsonFile(obs::GlobalRegistry(), flags["metrics-out"]);
    if (!st.ok()) return Fail(st);
    std::printf("wrote metrics to %s\n", flags["metrics-out"].c_str());
  }
  return 0;
}
