// Command-line front end: train HybridGNN (or any baseline) on a graph file
// and evaluate link prediction, or export embeddings.
//
//   hybridgnn_cli train --graph g.txt --model HybridGNN [--seed N]
//                       [--scale-epochs X] [--hard-negatives F]
//                       [--save ckpt.hgc | --load ckpt.hgc]
//                       [--metrics-out metrics.json]
//   hybridgnn_cli embed --graph g.txt --model DeepWalk --out emb.tsv
//                       [--save ckpt.hgc | --load ckpt.hgc]
//                       [--metrics-out metrics.json]
//   hybridgnn_cli stats --graph g.txt
//
// --metrics-out dumps the process-wide observability registry
// (obs/metrics.h) — stage timers such as core/sgns_epoch and
// core/epoch, plus counters — as JSON after the command finishes.
//
// --save freezes the fitted model's embedding tables to a `.hgc` checkpoint
// (serve/checkpoint.h); --load skips training entirely and evaluates or
// exports the frozen tables instead. A loaded checkpoint reproduces the
// saved model's link-prediction metrics bit-identically for dot-decoder
// models (see serve/store_model.h for the R-GCN caveat).
//
// The graph file format is the one written by SaveGraph (see
// graph/graph_io.h); `examples/graph_io_roundtrip` produces samples.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include <memory>

#include "baselines/registry.h"
#include "common/string_util.h"
#include "data/split.h"
#include "eval/evaluator.h"
#include "graph/graph_io.h"
#include "graph/metapath.h"
#include "graph/stats.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/store_model.h"

using namespace hybridgnn;

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
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

/// Dumps the global metric registry if --metrics-out was given; returns the
/// intended process exit code so callers can `return Finish(flags, 0);`.
int Finish(std::map<std::string, std::string>& flags, int code) {
  if (flags.count("metrics-out")) {
    Status st = obs::WriteJsonFile(obs::GlobalRegistry(), flags["metrics-out"]);
    if (!st.ok()) return Fail(st);
    std::fprintf(stderr, "wrote metrics to %s\n",
                 flags["metrics-out"].c_str());
  }
  return code;
}

/// Produces a ready-to-query model: with --load, the frozen tables of an
/// `.hgc` checkpoint (no training); otherwise trains `model_name` on
/// `fit_graph` and, with --save, freezes the result for the next run.
StatusOr<std::unique_ptr<EmbeddingModel>> ObtainModel(
    std::map<std::string, std::string>& flags, const std::string& model_name,
    const std::vector<MetapathScheme>& schemes, uint64_t seed,
    const ModelBudget& budget, const MultiplexHeteroGraph& fit_graph) {
  if (flags.count("load")) {
    auto loaded = LoadCheckpoint(flags["load"], LoadMode::kMmap);
    if (!loaded.ok()) return loaded.status();
    auto store = std::make_shared<EmbeddingStore>(std::move(loaded).value());
    std::fprintf(stderr, "loaded %s (model=%s, dim=%zu), skipping training\n",
                 flags["load"].c_str(), store->model_name().c_str(),
                 store->dim());
    return std::unique_ptr<EmbeddingModel>(
        std::make_unique<StoreBackedModel>(std::move(store)));
  }
  auto model = CreateModel(model_name, schemes, seed, budget);
  if (!model.ok()) return model.status();
  Status st = (*model)->Fit(fit_graph);
  if (!st.ok()) return st;
  if (flags.count("save")) {
    Status ws = SaveCheckpoint(**model, fit_graph, flags["save"]);
    if (!ws.ok()) return ws;
    std::fprintf(stderr, "froze embeddings to %s\n", flags["save"].c_str());
  }
  return std::move(model).value();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <train|embed|stats> --graph <file> "
                 "[--model NAME] [--seed N] [--out FILE] "
                 "[--hard-negatives F] [--metrics-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  auto flags = ParseFlags(argc, argv);
  if (!flags.count("graph")) {
    std::fprintf(stderr, "--graph is required\n");
    return 2;
  }
  auto graph = LoadGraph(flags["graph"]);
  if (!graph.ok()) return Fail(graph.status());

  if (cmd == "stats") {
    std::printf("%s", FormatStats(*graph, ComputeStats(*graph)).c_str());
    return 0;
  }

  const std::string model_name =
      flags.count("model") ? flags["model"] : "HybridGNN";
  const uint64_t seed =
      flags.count("seed") ? ParseInt64(flags["seed"]).value_or(1) : 1;
  ModelBudget budget;  // library defaults; tune via the flags below
  if (flags.count("scale-epochs")) {
    budget.effort = ParseDouble(flags["scale-epochs"]).value_or(1.0);
  }
  std::vector<MetapathScheme> schemes =
      DefaultSchemes(*graph, /*max_schemes_per_relation=*/2);

  if (cmd == "embed") {
    auto model = ObtainModel(flags, model_name, schemes, seed, budget,
                             *graph);
    if (!model.ok()) return Fail(model.status());
    const std::string out_path =
        flags.count("out") ? flags["out"] : "embeddings.tsv";
    std::ofstream out(out_path);
    if (!out) return Fail(Status::IoError("cannot write " + out_path));
    for (NodeId v = 0; v < graph->num_nodes(); ++v) {
      for (RelationId r = 0; r < graph->num_relations(); ++r) {
        Tensor e = (*model)->Embedding(v, r);
        out << v << '\t' << graph->relation_name(r);
        for (size_t j = 0; j < e.cols(); ++j) out << '\t' << e.At(0, j);
        out << '\n';
      }
    }
    std::printf("wrote %zu x %zu embeddings to %s\n",
                graph->num_nodes(), graph->num_relations(),
                out_path.c_str());
    return Finish(flags, 0);
  }

  if (cmd == "train") {
    Rng rng(seed ^ 0x5117);
    SplitOptions options;
    if (flags.count("hard-negatives")) {
      options.hard_negative_fraction =
          ParseDouble(flags["hard-negatives"]).value_or(0.5);
    }
    auto split = SplitEdges(*graph, options, rng);
    if (!split.ok()) return Fail(split.status());
    // --save/--load freeze/restore the tables the model produces on the
    // *training* graph, so a reloaded checkpoint reproduces this run's
    // evaluation exactly (the split is deterministic in --seed).
    auto model = ObtainModel(flags, model_name, schemes, seed, budget,
                             split->train_graph);
    if (!model.ok()) return Fail(model.status());
    Rng eval_rng(seed ^ 0xE7A1);
    EvalOptions opts;
    LinkPredictionResult r = EvaluateLinkPrediction(
        **model, *graph, *split, opts, eval_rng);
    std::printf("%-12s ROC-AUC %.2f  PR-AUC %.2f  F1 %.2f  PR@10 %.4f  "
                "HR@10 %.4f\n",
                model_name.c_str(), r.roc_auc, r.pr_auc, r.f1, r.pr_at_k,
                r.hr_at_k);
    return Finish(flags, 0);
  }

  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
