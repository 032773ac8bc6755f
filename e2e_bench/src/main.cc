// End-to-end benchmark of the HybridGNN pipeline as a user runs it:
// synthetic graph -> link split -> HybridGnn::Fit (walk corpus, SGNS
// pretrain, minibatch epochs, embedding cache) -> link-prediction eval ->
// .hgc export and mmap load -> top-K serving at a fixed rate, sustained
// throughput, and serving beside streaming ingest. Every workload runs every
// stage; the workloads differ in which stage is large. README.md in this
// directory lists the workloads, the metrics and the layer each moves.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--smoke 1]
//
// --smoke 1 caps the graph scale at 1 and sets up once: a fast run for the
// benchmark's own tests, not comparable with full runs.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1
// runs the pipeline once untraced and once traced, reports the per-layer
// metrics from the traced pass, and writes its spans as Chrome trace-event
// JSON to <out-dir>/trace-<workload>-<seed>.json. Exit code 1 when an output
// check fails, 2 on a usage or environment error (no result printed).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "common/rng.h"
#include "core/hybrid_gnn.h"
#include "data/profiles.h"
#include "data/split.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "kernels/kernels.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/service.h"
#include "serve/topk.h"
#include "stream/live_store.h"
#include "stream/overlay.h"
#include "stream/refresher.h"
#include "trace.h"

namespace e2e {
namespace {

using hybridgnn::EmbeddingStore;
using hybridgnn::NodeId;
using hybridgnn::RelationId;
using hybridgnn::Status;

// Thread counts are pinned here and passed explicitly to every options
// struct: a 0 would defer to HYBRIDGNN_THREADS and measure another program.
// Fit runs the serial path: bit-identical per seed, and one busy CPU, so a
// neighbour stealing another CPU cannot stall a gradient-sink reduction.
constexpr size_t kFitThreads = 1;
constexpr size_t kTrainThreads = 2;  // eval, BuildStore
// One RecommendService worker: with two, the live phase kept more threads
// busy than a shared 4-vCPU host gave steadily, and p50 swung 1.4-4 ms.
constexpr size_t kScoringThreads = 1;
constexpr size_t kTopKThreads = 1;  // RecommendBatch without a pool
constexpr size_t kAnnBuildThreads = 1;
// Generator + scoring worker + service dispatcher + ingest thread, all
// running at once in the live phase. The run refuses to start on fewer CPUs.
constexpr size_t kBusyThreads = 1 + kScoringThreads + 1 + 1;

// Each workload's graph is one fixed dataset, like a published benchmark
// dataset; --seed picks the split, the model's seed, the query stream and
// the order edges are streamed in.
constexpr uint64_t kDatasetSeed = 3;
// A small share of what the one worker sustains (max_qps read 3.5k/s on
// serve_live), so p50 is the batch window plus the service time and not a
// queue that grows whenever the host slows the worker down.
constexpr double kFixedRateQps = 200.0;
constexpr size_t kTailWindowSamples = 1000;  // p99 with ten samples beyond
constexpr size_t kDrainRequests = 1024;  // sixteen full micro-batches
constexpr size_t kMinDrainBursts = 5;
constexpr double kDrainShare = 0.3;  // of --seconds
constexpr double kDrainQuantile = 0.9;
constexpr size_t kQuerySetSize = 4096;
constexpr size_t kTopKBatch = 512;  // queries per single-thread batch pass
constexpr size_t kTopK = 10;
constexpr size_t kCheckEvery = 5;  // brute-force every 5th static response
constexpr size_t kIngestBatchEdges = 64;
constexpr size_t kMinIngestBatches = 8;
constexpr double kIngestBatchesPerSecond = 2.0;  // of --seconds
constexpr size_t kPublishReps = 3;
// test_roc_auc floor (percent). Half the test negatives are hard
// cross-relation ones, so a pretrain-only model scores about chance (lowest
// seen 48.6) and a one-epoch model mostly 55-58, but two of about a hundred
// seeds tried landed near chance too (48.0 for seed 801, 49.5 for seed
// 1023). The floor catches a model whose scores are inverted or garbage;
// the freshness check catches one that does not learn.
constexpr double kAucFloor = 45.0;

const char* const kRefusedEnv[] = {
    "HYBRIDGNN_THREADS", "HYBRIDGNN_PLAN",        "HYBRIDGNN_ANN",
    "HYBRIDGNN_KERNELS", "HYBRIDGNN_TENSOR_POOL", "HYBRIDGNN_TENSOR_POOL_MB"};

/// What one workload runs. Shares are of --seconds.
struct WorkloadSpec {
  const char* name;
  const char* profile;
  double scale;
  /// Training epochs per Fit. 0 builds a pretrain-only model as part of
  /// set-up (the serving workloads); otherwise Fit is the measured phase,
  /// repeated for --seconds (at least twice).
  size_t epochs;
  size_t max_pairs_per_epoch;
  /// Set-ups per run, half before the measured phases and half after.
  size_t setup_reps;
  double static_share;
  /// p50/p99 come from the reads beside ingest instead of the static phase.
  bool latency_from_live;
};

const WorkloadSpec kWorkloads[] = {
    {"train_taobao", "taobao", 3.0, 1, 1024, 100, 0.25, false},
    {"serve_live", "taobao", 6.0, 0, 0, 8, 0.3, true},
};

/// Named value with its unit, in output order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything set-up builds, kept at a fixed address: the recommender
/// points into the store and the graph.
struct Pipeline {
  hybridgnn::Dataset dataset;
  hybridgnn::LinkSplit split;
  std::unique_ptr<hybridgnn::HybridGnn> model;
  std::optional<EmbeddingStore> store;
  std::unique_ptr<hybridgnn::TopKRecommender> recommender;
  std::vector<hybridgnn::TopKQuery> queries;
};

/// Raw measurements of one pass over the pipeline.
struct PassResult {
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  std::vector<double> dataset_ms, split_ms;
  std::vector<double> corpus_ms, pretrain_ms, epoch_ms;
  double final_loss = 0.0;
  double test_auc = 0.0;
  double eval_ms = 0.0;
  std::vector<double> export_ms, write_ms, load_ms, build_ms;
  OpenLoopResult static_reads;
  hybridgnn::MetricsSnapshot static_service;
  double topk_us = 0.0;
  double max_qps = 0.0;
  OpenLoopResult live_reads;
  /// Per timed batch: arrival to live (the writer is closed-loop, so this is
  /// the IngestBatch time) and edges added.
  std::vector<double> ingest_ms, ingest_edges;
  size_t ingest_failed = 0;
  size_t dirty_nodes = 0, pairs_trained = 0;
  std::vector<double> frontier_ms, publish_ms;
  double fresh_auc = 0.0, stale_auc = 0.0;
  size_t checked_lists = 0, mismatched_lists = 0;
  size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  /// What the failures counted outside `errors` were, for the report.
  std::vector<std::string> failure_notes;
  /// Obs registry deltas summed over the Fit calls, and over the other
  /// wrapped calls (eval, the live phase).
  std::map<std::string, double> fit_obs, obs;
  double peak_rss_mb = 0.0;
  double wall_s = 0.0;
  uint64_t input_fingerprint = 0;
};

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Counters and stage totals of the global obs registry, flattened:
/// counters by name, stage histograms as "<name>#ms" and "<name>#n".
std::map<std::string, double> ObsValues() {
  const hybridgnn::obs::RegistrySnapshot snap =
      hybridgnn::obs::GlobalRegistry().Snapshot();
  std::map<std::string, double> out;
  for (const auto& [name, v] : snap.counters) {
    out[name] = static_cast<double>(v);
  }
  for (const auto& s : snap.stages) {
    out[s.name + "#ms"] = s.total_ms;
    out[s.name + "#n"] = static_cast<double>(s.count);
  }
  return out;
}

/// Runs `call`, adding the obs registry's change across it to `acc`.
template <typename Fn>
void WithObsDelta(std::map<std::string, double>& acc, Fn&& call) {
  const std::map<std::string, double> before = ObsValues();
  call();
  for (const auto& [name, v] : ObsValues()) {
    auto it = before.find(name);
    acc[name] += v - (it == before.end() ? 0.0 : it->second);
  }
}

hybridgnn::HybridGnnConfig ModelConfig(const WorkloadSpec& spec,
                                       uint64_t seed) {
  hybridgnn::HybridGnnConfig c;
  // The walk corpus of the repository's model registry (ModelBudget), which
  // the CLI and the table benches train with.
  const hybridgnn::ModelBudget budget;
  c.corpus.num_walks_per_node = budget.num_walks;
  c.corpus.walk_length = budget.walk_length;
  c.corpus.window = budget.window;
  c.epochs = spec.epochs;
  // Patience >= epochs: a convergence change cannot shorten the fixed work.
  c.early_stopping_patience = std::max<size_t>(1, spec.epochs);
  if (spec.max_pairs_per_epoch > 0) {
    c.max_pairs_per_epoch = spec.max_pairs_per_epoch;
  }
  // Internal validation runs four single-node forwards per held-out edge
  // every epoch. 2% of the training edges keeps it a fixed, minor share of
  // an epoch; a pretrain-only model only takes the epoch-0 baseline, at the
  // 16-edge floor.
  c.internal_val_fraction = spec.epochs == 0 ? 0.0 : 0.02;
  c.seed = seed;
  return c;
}

hybridgnn::TopKOptions TopKOpts() {
  hybridgnn::TopKOptions o;
  o.num_threads = kTopKThreads;
  o.ann = false;
  o.ann_build.build_threads = kAnnBuildThreads;
  return o;
}

hybridgnn::ServiceOptions ServiceOpts() {
  hybridgnn::ServiceOptions o;
  o.num_threads = kScoringThreads;
  o.max_batch_size = 64;
  o.batch_window_ms = 1.0;
  // No shedding, deadlines or result cache: every failure is a real one and
  // every request is scored.
  o.max_queue_depth = 0;
  o.default_deadline_ms = 0.0;
  o.result_cache_capacity = 0;
  return o;
}

/// Typed top-K queries: a source node (users where the profile has them),
/// a uniform relation, item candidates, training neighbours excluded.
std::vector<hybridgnn::TopKQuery> MakeQueries(
    const hybridgnn::MultiplexHeteroGraph& g, uint64_t seed) {
  const hybridgnn::NodeTypeId item = g.FindNodeType("item");
  hybridgnn::NodeTypeId source = g.FindNodeType("user");
  if (source == hybridgnn::kInvalidNodeType) source = item;
  const std::vector<NodeId>& sources = g.NodesOfType(source);
  hybridgnn::Rng rng(seed ^ 0x51A7E5ULL);
  std::vector<hybridgnn::TopKQuery> out(kQuerySetSize);
  for (auto& q : out) {
    q.node = sources[rng.UniformUint64(sources.size())];
    q.rel = static_cast<RelationId>(rng.UniformUint64(g.num_relations()));
    q.k = kTopK;
    q.candidate_type = item;
    q.exclude_train_neighbors = true;
  }
  return out;
}

/// FNV-1a over the generated inputs (graph edges, held-out edges, query
/// set): equal across runs with one seed, so tests can check determinism
/// even though multi-threaded training is not bit-reproducible.
uint64_t InputFingerprint(const Pipeline& p) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto* edges : {&p.dataset.graph.edges(), &p.split.test_pos,
                            &p.split.test_neg}) {
    for (const hybridgnn::EdgeTriple& e : *edges) {
      mix(e.src);
      mix(e.dst);
      mix(e.rel);
    }
  }
  for (const hybridgnn::TopKQuery& q : p.queries) {
    mix(q.node);
    mix(q.rel);
  }
  return h;
}

double Dot(const float* a, const float* b, size_t dim) {
  double acc = 0.0;
  for (size_t j = 0; j < dim; ++j) acc += static_cast<double>(a[j]) * b[j];
  return acc;
}

/// The benchmark's own exact top-K for `q` over `store`: same candidate
/// type, self and training-neighbour filter, and tie rule as the serving
/// path, which ranks by the score as a float (descending), then node id.
std::vector<std::pair<NodeId, float>> BruteForceTopK(
    const EmbeddingStore& store, const hybridgnn::MultiplexHeteroGraph& g,
    const hybridgnn::TopKQuery& q) {
  const float* query = store.Lookup(q.node, q.rel);
  std::vector<std::pair<NodeId, float>> scored;
  if (query == nullptr) return scored;
  const auto nbrs = g.Neighbors(q.node, q.rel);
  for (NodeId cand : g.NodesOfType(q.candidate_type)) {
    if (cand == q.node) continue;
    if (std::binary_search(nbrs.begin(), nbrs.end(), cand)) continue;
    const float* row = store.Lookup(cand, q.rel);
    if (row == nullptr) continue;
    scored.emplace_back(cand,
                        static_cast<float>(Dot(query, row, store.dim())));
  }
  auto better = [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  };
  const size_t k = std::min(q.k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(), better);
  scored.resize(k);
  return scored;
}

/// True when `served` equals the brute-force list. A different node at a
/// position is accepted only when its score ties the expected one to within
/// a float rounding step (the kernels' summation order differs from ours).
bool ServedListMatches(const EmbeddingStore& store,
                       const hybridgnn::MultiplexHeteroGraph& g,
                       const hybridgnn::TopKQuery& q,
                       const std::vector<hybridgnn::Recommendation>& served) {
  const auto expected = BruteForceTopK(store, g, q);
  if (expected.size() != served.size()) return false;
  for (size_t i = 0; i < served.size(); ++i) {
    if (served[i].node == expected[i].first) continue;
    if (std::abs(served[i].score - expected[i].second) >
        1e-6f * (1.0f + std::abs(expected[i].second))) {
      return false;
    }
  }
  return true;
}

/// ROC-AUC (percent) of `pos` against the paired `neg` edges under `store`.
double EdgeAuc(const EmbeddingStore& store,
               const std::vector<hybridgnn::EdgeTriple>& pos,
               const std::vector<hybridgnn::EdgeTriple>& neg) {
  auto score = [&](const hybridgnn::EdgeTriple& e,
                   std::vector<double>& out) {
    const float* a = store.Lookup(e.src, e.rel);
    const float* b = store.Lookup(e.dst, e.rel);
    if (a != nullptr && b != nullptr) out.push_back(Dot(a, b, store.dim()));
  };
  std::vector<double> p, n;
  for (const auto& e : pos) score(e, p);
  for (const auto& e : neg) score(e, n);
  if (p.empty() || n.empty()) return 0.0;
  return 100.0 * hybridgnn::RocAuc(p, n);
}

/// CPUs this process may run on, in ascending order; empty on error.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

/// Pins the calling thread to one CPU while in scope, then restores its
/// previous CPU set. Threads it starts meanwhile inherit the pin.
class PinnedTo {
 public:
  explicit PinnedTo(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
              sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedTo() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

class PipelineRunner {
 public:
  /// `fit_reps` > 0 runs exactly that many Fits instead of filling
  /// --seconds, so a traced pass repeats an untraced pass's work.
  PipelineRunner(const WorkloadSpec& spec, uint64_t seed, double seconds,
                 const std::string& out_dir, Tracer& tracer,
                 size_t fit_reps = 0)
      : spec_(spec),
        seed_(seed),
        seconds_(seconds),
        ckpt_path_(out_dir + "/" + spec.name + "-" + std::to_string(seed) +
                   "-" + std::to_string(::getpid()) + ".hgc"),
        tracer_(tracer),
        fit_reps_(fit_reps),
        cpus_(AllowedCpus()) {}

  PassResult Run() {
    const Clock::time_point t0 = Clock::now();
    // Half the set-ups run before the measured phases and half after them,
    // so their median spans the host's speed over the whole run.
    const size_t leading = (spec_.setup_reps + 1) / 2;
    std::unique_ptr<Pipeline> p;
    for (size_t rep = 0; rep < leading; ++rep) {
      if (!TimedSetup(p)) return Finish(t0);
    }
    if (spec_.epochs > 0) {
      ScopedSpan span(tracer_, "bench.fit_loop");
      const Clock::time_point f0 = Clock::now();
      do {
        if (!FitModel(*p)) return Finish(t0);
      } while (fit_reps_ > 0
                   ? r_.fit_s.size() < fit_reps_
                   : MsBetween(f0, Clock::now()) * 1e-3 < seconds_ ||
                         r_.fit_s.size() < 2);
      if (!Export(*p)) return Finish(t0);
    }
    Evaluate(*p);
    ServeStatic(*p);
    MeasureMaxQps(*p);
    ServeLive(*p);
    // Read before the trailing set-ups, which rebuild on a heap the
    // measured phases have already grown.
    r_.peak_rss_mb = PeakRssMb();
    for (size_t rep = leading; rep < spec_.setup_reps; ++rep) {
      if (!TimedSetup(p)) return Finish(t0);
    }
    return Finish(t0);
  }

 private:
  PassResult& Finish(Clock::time_point t0) {
    r_.wall_s = MsBetween(t0, Clock::now()) * 1e-3;
    r_.failed += r_.errors.size();
    return r_;
  }

  void Fail(const std::string& what, const Status& st) {
    r_.errors.push_back(what + ": " + st.ToString());
  }

  /// Records what `failed` operations of one kind were, when any were.
  void Note(const std::string& what, size_t failed,
            const std::string& first_error) {
    if (failed == 0) return;
    r_.failure_notes.push_back(what + ": " + std::to_string(failed) +
                               " failed, first: " + first_error);
  }

  /// Replaces `p` with a fresh set-up, freeing the old one first, and
  /// records the time taken. False when a set-up call failed.
  bool TimedSetup(std::unique_ptr<Pipeline>& p) {
    p.reset();
    const Clock::time_point s0 = Clock::now();
    p = Setup();
    r_.setup_s.push_back(MsBetween(s0, Clock::now()) * 1e-3);
    return p != nullptr;
  }

  /// Dataset + split, and for the serving workloads the whole path to a
  /// serving-ready recommender.
  std::unique_ptr<Pipeline> Setup() {
    ScopedSpan span(tracer_, "bench.setup");
    auto p = std::make_unique<Pipeline>();
    {
      ScopedSpan s(tracer_, "data.dataset");
      const Clock::time_point t = Clock::now();
      auto ds =
          hybridgnn::MakeDataset(spec_.profile, spec_.scale, kDatasetSeed);
      r_.dataset_ms.push_back(MsBetween(t, Clock::now()));
      ++r_.attempted;
      if (!ds.ok()) {
        Fail("MakeDataset", ds.status());
        return nullptr;
      }
      p->dataset = std::move(ds).value();
    }
    {
      ScopedSpan s(tracer_, "data.split");
      const Clock::time_point t = Clock::now();
      hybridgnn::Rng rng(seed_);
      auto split = hybridgnn::SplitEdges(p->dataset.graph,
                                         hybridgnn::SplitOptions{}, rng);
      r_.split_ms.push_back(MsBetween(t, Clock::now()));
      ++r_.attempted;
      if (!split.ok()) {
        Fail("SplitEdges", split.status());
        return nullptr;
      }
      p->split = std::move(split).value();
    }
    p->queries = MakeQueries(p->split.train_graph, seed_);
    r_.input_fingerprint = InputFingerprint(*p);
    if (spec_.epochs == 0 && (!FitModel(*p) || !Export(*p))) return nullptr;
    return p;
  }

  /// One HybridGnn::Fit with the progress callback turned into spans.
  bool FitModel(Pipeline& p) {
    ScopedSpan span(tracer_, "core.fit");
    p.model = std::make_unique<hybridgnn::HybridGnn>(ModelConfig(spec_, seed_),
                                                     p.dataset.schemes);
    hybridgnn::FitOptions opts;
    opts.num_threads = kFitThreads;
    const Clock::time_point start = Clock::now();
    Clock::time_point last = start;
    opts.progress_callback = [&](const hybridgnn::FitProgress& tick) {
      const Clock::time_point now = Clock::now();
      const double ms = MsBetween(last, now);
      std::string name;
      if (tick.phase == "corpus") {
        r_.corpus_ms.push_back(ms);
        name = "sampling.corpus";
      } else if (tick.phase == "pretrain") {
        r_.pretrain_ms.push_back(ms);
        name = "sampling.pretrain";
      } else if (tick.phase == "epoch") {
        r_.epoch_ms.push_back(ms);
        name = "core.epoch";
      } else {
        name = "core.cache";
      }
      tracer_.Add(name, tracer_.MsAt(last), tracer_.MsAt(now));
      last = now;
    };
    Status st;
    WithObsDelta(r_.fit_obs,
                 [&] { st = p.model->Fit(p.split.train_graph, opts); });
    r_.fit_s.push_back(MsBetween(start, Clock::now()) * 1e-3);
    ++r_.attempted;
    if (!st.ok()) {
      Fail("Fit", st);
      return false;
    }
    r_.final_loss = p.model->last_epoch_loss();
    return true;
  }

  /// Model -> store -> .hgc -> mmap load -> recommender.
  bool Export(Pipeline& p) {
    Clock::time_point t = Clock::now();
    {
      ScopedSpan s(tracer_, "serve.export");
      auto built = hybridgnn::BuildStore(*p.model, p.split.train_graph,
                                         kTrainThreads);
      ++r_.attempted;
      if (!built.ok()) {
        Fail("BuildStore", built.status());
        return false;
      }
      p.store.emplace(std::move(built).value());
    }
    r_.export_ms.push_back(MsBetween(t, Clock::now()));
    t = Clock::now();
    {
      ScopedSpan s(tracer_, "serve.ckpt_write");
      const Status st = hybridgnn::WriteCheckpoint(*p.store, ckpt_path_);
      ++r_.attempted;
      if (!st.ok()) {
        Fail("WriteCheckpoint", st);
        return false;
      }
    }
    r_.write_ms.push_back(MsBetween(t, Clock::now()));
    p.store.reset();
    t = Clock::now();
    {
      ScopedSpan s(tracer_, "serve.ckpt_load");
      auto loaded =
          hybridgnn::LoadCheckpoint(ckpt_path_, hybridgnn::LoadMode::kMmap);
      ++r_.attempted;
      if (!loaded.ok()) {
        Fail("LoadCheckpoint", loaded.status());
        return false;
      }
      p.store.emplace(std::move(loaded).value());
    }
    r_.load_ms.push_back(MsBetween(t, Clock::now()));
    // The mapping keeps the data; the file itself is no longer needed.
    std::filesystem::remove(ckpt_path_);
    t = Clock::now();
    {
      ScopedSpan s(tracer_, "serve.recommender_build");
      p.recommender = std::make_unique<hybridgnn::TopKRecommender>(
          &*p.store, &p.split.train_graph, TopKOpts());
    }
    r_.build_ms.push_back(MsBetween(t, Clock::now()));
    return true;
  }

  void Evaluate(Pipeline& p) {
    ScopedSpan span(tracer_, "eval.link_prediction");
    hybridgnn::EvalOptions opts;
    opts.k = kTopK;
    opts.num_threads = kTrainThreads;
    hybridgnn::Rng rng(seed_ ^ 0xE7A1ULL);
    const Clock::time_point t = Clock::now();
    WithObsDelta(r_.obs, [&] {
      r_.test_auc = hybridgnn::EvaluateLinkPrediction(
                        *p.model, p.dataset.graph, p.split, opts, rng)
                        .roc_auc;
    });
    r_.eval_ms = MsBetween(t, Clock::now());
    ++r_.attempted;
  }

  /// Adds one span per request under `parent`, with the generator's lag
  /// before sending as its child, so the request's self time is the time
  /// the service held it.
  void TraceRequests(const OpenLoopResult& reads, int parent) {
    if (!tracer_.enabled()) return;
    for (const RequestSample& s : reads.samples) {
      const int request =
          tracer_.Add("serve.request", s.due_ms, s.done_ms, parent, s.id);
      tracer_.Add("loadgen.late", s.due_ms, s.sent_ms, request, s.id);
    }
  }

  /// Single-thread RecommendBatch over part of the query set (after an
  /// untimed pass that faults in the mapped tables), then a fixed-rate open
  /// loop against the static recommender and a brute-force check of a
  /// sample of the served lists.
  void ServeStatic(Pipeline& p) {
    const std::span<const hybridgnn::TopKQuery> all(p.queries);
    const auto warm = all.subspan(0, kTopKBatch);
    const auto timed = all.subspan(kTopKBatch, kTopKBatch);
    {
      ScopedSpan span(tracer_, "serve.topk_batch");
      (void)p.recommender->RecommendBatch(warm);
      const Clock::time_point t = Clock::now();
      const auto answers = p.recommender->RecommendBatch(timed);
      r_.topk_us = MsBetween(t, Clock::now()) * 1e3 /
                   static_cast<double>(timed.size());
      r_.attempted += answers.size();
      size_t failed = 0;
      std::string first_error;
      for (const auto& a : answers) {
        if (!a.ok() && failed++ == 0) first_error = a.status().ToString();
      }
      r_.failed += failed;
      Note("RecommendBatch", failed, first_error);
    }
    {
      ScopedSpan span(tracer_, "loadgen.static");
      const int phase = tracer_.Current();
      hybridgnn::RecommendService service(p.recommender.get(), ServiceOpts());
      OpenLoopOptions o;
      o.rate_qps = kFixedRateQps;
      o.seconds = std::max(0.5, spec_.static_share * seconds_);
      o.keep_every = kCheckEvery;
      o.first_id = next_request_id_;
      r_.static_reads = RunOpenLoop(service, p.queries, o, tracer_);
      r_.static_service = service.metrics();
      next_request_id_ += r_.static_reads.samples.size();
      r_.attempted += r_.static_reads.samples.size();
      r_.failed += r_.static_reads.failed();
      Note("static reads", r_.static_reads.failed(),
           r_.static_reads.first_error);
      TraceRequests(r_.static_reads, phase);
    }
    for (const auto& [qi, items] : r_.static_reads.kept) {
      ++r_.checked_lists;
      if (!ServedListMatches(*p.store, p.split.train_graph, p.queries[qi],
                             items)) {
        ++r_.mismatched_lists;
      }
    }
  }

  /// max_qps: the drain rate of bursts of kDrainRequests requests submitted
  /// at once, repeated for the phase's share of the run. Interference from
  /// the host only ever lowers a burst's rate, so a high quantile of the
  /// bursts is the steadiest estimate of what the service sustains; unlike
  /// the best burst, it does not rest on a single one.
  void MeasureMaxQps(Pipeline& p) {
    ScopedSpan span(tracer_, "loadgen.max_qps");
    const Clock::time_point t0 = Clock::now();
    std::vector<double> rates;
    size_t failed = 0;
    std::string first_error;
    while (rates.size() < kMinDrainBursts ||
           MsBetween(t0, Clock::now()) * 1e-3 < kDrainShare * seconds_) {
      // A new service per burst, its threads on the next CPU in turn.
      PinnedTo pin(cpus_[rates.size() % cpus_.size()]);
      hybridgnn::RecommendService service(p.recommender.get(), ServiceOpts());
      rates.push_back(DrainQps(service, p.queries, kDrainRequests,
                               rates.size() * kDrainRequests, &failed,
                               &first_error));
    }
    r_.max_qps = Quantile(rates, kDrainQuantile);
    r_.attempted += rates.size() * kDrainRequests;
    r_.failed += failed;
    Note("drained reads", failed, first_error);
  }

  /// Reads at the fixed rate against a LiveEmbeddingStore while an ingest
  /// thread streams held-out test edges through IncrementalRefresher in
  /// fixed-size batches, back to back.
  void ServeLive(Pipeline& p) {
    ScopedSpan span(tracer_, "stream.live");
    const int phase = tracer_.Current();
    std::unique_ptr<hybridgnn::LiveEmbeddingStore> live;
    {
      ScopedSpan s(tracer_, "stream.create");
      auto created = hybridgnn::LiveEmbeddingStore::Create(
          *p.store, &p.split.train_graph, TopKOpts());
      ++r_.attempted;
      if (!created.ok()) {
        Fail("LiveEmbeddingStore::Create", created.status());
        return;
      }
      live = std::move(created).value();
    }
    hybridgnn::DynamicGraphOverlay overlay(&p.split.train_graph);
    hybridgnn::RefreshOptions ropts;
    ropts.seed = seed_;
    hybridgnn::IncrementalRefresher refresher(&overlay, live.get(), ropts);

    // The stream: held-out test edges in a seeded order, with their paired
    // negatives kept aligned for the freshness AUC.
    std::vector<size_t> order(
        std::min(p.split.test_pos.size(), p.split.test_neg.size()));
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    hybridgnn::Rng rng(seed_ ^ 0x5EEDULL);
    rng.Shuffle(order);
    const size_t batches = std::min(
        order.size() / kIngestBatchEdges,
        std::max<size_t>(kMinIngestBatches, static_cast<size_t>(std::lround(
                                kIngestBatchesPerSecond * seconds_))));
    std::vector<hybridgnn::EdgeTriple> pos, neg;
    std::vector<std::vector<hybridgnn::GraphDelta>> deltas(batches);
    for (size_t b = 0; b < batches; ++b) {
      for (size_t i = b * kIngestBatchEdges; i < (b + 1) * kIngestBatchEdges;
           ++i) {
        const hybridgnn::EdgeTriple& e = p.split.test_pos[order[i]];
        pos.push_back(e);
        neg.push_back(p.split.test_neg[order[i]]);
        deltas[b].push_back(
            hybridgnn::GraphDelta::AddEdge(e.src, e.dst, e.rel, i));
      }
    }

    std::atomic<bool> ingest_done{false};
    std::string ingest_error;
    hybridgnn::RecommendService service(live.get(), ServiceOpts());
    {
      std::jthread ingest([&] {
        for (size_t b = 0; b < batches; ++b) {
          PinnedTo pin(cpus_[b % cpus_.size()]);
          // Closed-loop writer: a batch arrives as the previous one goes
          // live, so its lag is its own IngestBatch time.
          const Clock::time_point arrive = Clock::now();
          auto stats = refresher.IngestBatch(deltas[b]);
          const Clock::time_point live_at = Clock::now();
          tracer_.Add("stream.ingest_batch", tracer_.MsAt(arrive),
                      tracer_.MsAt(live_at), phase);
          if (!stats.ok()) {
            if (r_.ingest_failed++ == 0) {
              ingest_error = stats.status().ToString();
            }
            continue;
          }
          r_.dirty_nodes += stats->dirty_nodes;
          r_.pairs_trained += stats->pairs_trained;
          // The first batch warms the refresher's buffers; it is streamed
          // and checked like the rest but not timed.
          if (b == 0) continue;
          const double ms = MsBetween(arrive, live_at);
          r_.ingest_ms.push_back(ms);
          r_.ingest_edges.push_back(static_cast<double>(stats->edges_added));
        }
        ingest_done.store(true, std::memory_order_release);
      });
      OpenLoopOptions o;
      o.rate_qps = kFixedRateQps;
      o.stop = &ingest_done;
      o.first_id = next_request_id_;
      const int reads_span = tracer_.Begin("loadgen.live");
      WithObsDelta(r_.obs, [&] {
        r_.live_reads = RunOpenLoop(service, p.queries, o, tracer_);
        ingest.join();
      });
      tracer_.End(reads_span);
      TraceRequests(r_.live_reads, reads_span);
    }
    next_request_id_ += r_.live_reads.samples.size();
    r_.attempted += r_.live_reads.samples.size() + batches;
    r_.failed += r_.live_reads.failed() + r_.ingest_failed;
    Note("live reads", r_.live_reads.failed(), r_.live_reads.first_error);
    Note("IngestBatch", r_.ingest_failed, ingest_error);

    // DirtyFrontier and Publish timed directly, after the stream.
    for (size_t b = 0; b < batches; ++b) {
      std::vector<NodeId> touched;
      for (const auto& d : deltas[b]) {
        touched.push_back(d.src);
        touched.push_back(d.dst);
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      ScopedSpan s(tracer_, "stream.frontier");
      const Clock::time_point t = Clock::now();
      (void)refresher.DirtyFrontier(touched, ropts.k_hops);
      r_.frontier_ms.push_back(MsBetween(t, Clock::now()));
    }
    for (size_t i = 0; i < kPublishReps; ++i) {
      ScopedSpan s(tracer_, "stream.publish");
      const Clock::time_point t = Clock::now();
      const Status st = live->Publish(&overlay);
      r_.publish_ms.push_back(MsBetween(t, Clock::now()));
      ++r_.attempted;
      if (!st.ok()) Fail("Publish", st);
    }
    r_.stale_auc = EdgeAuc(*p.store, pos, neg);
    r_.fresh_auc = EdgeAuc(live->Acquire()->store, pos, neg);
  }

  const WorkloadSpec& spec_;
  uint64_t seed_;
  double seconds_;
  std::string ckpt_path_;
  Tracer& tracer_;
  size_t fit_reps_;
  /// Drain bursts and ingest batches take these CPUs in turn: on a shared
  /// host one CPU can run a third slower than another for seconds at a
  /// time, and a thread the scheduler leaves on it is slow for as long.
  std::vector<int> cpus_;
  PassResult r_;
  uint64_t next_request_id_ = 1;
};

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}


/// p99 of the quietest window of kTailWindowSamples requests. On a host
/// shared with other tenants the whole machine stalls for several ms every
/// few seconds; a tail taken over every window tracks those stalls, not the
/// system. A change that slows most requests, or stalls every window, still
/// moves the quietest one.
double QuietestWindowTailMs(const OpenLoopResult& reads) {
  const std::vector<double> tails = WindowTailsMs(
      reads.samples,
      std::max<size_t>(1, reads.samples.size() / kTailWindowSamples));
  return tails.empty() ? 0.0 : *std::min_element(tails.begin(), tails.end());
}

/// Times and edge counts of a subset of the timed ingest batches.
struct IngestBatches {
  std::vector<double> ms, edges;
};

/// The faster half of the timed ingest batches. Interference from the host
/// only ever slows a batch down, so the faster half is the steadiest
/// estimate of what ingest costs; the work per batch varies little.
IngestBatches FasterHalf(const PassResult& r) {
  std::vector<size_t> order(r.ingest_ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&r](size_t a, size_t b) {
    return r.ingest_ms[a] < r.ingest_ms[b];
  });
  order.resize((order.size() + 1) / 2);
  IngestBatches out;
  for (size_t i : order) {
    out.ms.push_back(r.ingest_ms[i]);
    out.edges.push_back(r.ingest_edges[i]);
  }
  return out;
}

const OpenLoopResult& LatencyReads(const WorkloadSpec& spec,
                                   const PassResult& r) {
  return spec.latency_from_live ? r.live_reads : r.static_reads;
}

std::vector<Metric> EndToEndMetrics(const WorkloadSpec& spec,
                                    const PassResult& r) {
  const IngestBatches fast = FasterHalf(r);
  return {
      {"setup_s", Median(r.setup_s), "s"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
      {"fit_s", Median(r.fit_s), "s"},
      {"test_roc_auc", r.test_auc, "%"},
      {"p50_ms", Median(LatencyReads(spec, r).LatenciesMs()), "ms"},
      {"max_qps", r.max_qps, "1/s"},
      {"ingest_edges_per_s",
       Sum(fast.edges) / (Sum(fast.ms) * 1e-3), "1/s"},
      {"refresh_lag_ms", Median(fast.ms), "ms"},
      {"fresh_auc", r.fresh_auc, "%"},
  };
}

std::vector<Metric> PerLayerMetrics(const WorkloadSpec& spec,
                                    const PassResult& r, const Tracer& tracer,
                                    double untraced_wall_s) {
  auto lookup = [](const std::map<std::string, double>& m,
                   const std::string& name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  const double fits = static_cast<double>(std::max<size_t>(1, r.fit_s.size()));
  // Training counters per Fit; the rest summed over the wrapped calls.
  auto per_fit = [&](const std::string& name) {
    return lookup(r.fit_obs, name) / fits;
  };
  auto obs = [&](const std::string& name) { return lookup(r.obs, name); };
  const double minibatches = lookup(r.fit_obs, "core/minibatches");
  const OpenLoopResult& reads = LatencyReads(spec, r);
  const std::map<std::string, double> self = tracer.SelfMsByLayer();
  auto self_ms = [&](const char* layer) {
    auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  const double fit_epoch_ms = Sum(r.epoch_ms);
  const double overhead_s = r.wall_s - untraced_wall_s;
  const hybridgnn::MetricsSnapshot& svc = r.static_service;
  return {
      {"data.dataset_ms", Median(r.dataset_ms), "ms"},
      {"data.split_ms", Median(r.split_ms), "ms"},
      {"sampling.corpus_ms", Median(r.corpus_ms), "ms"},
      {"sampling.pretrain_ms", Median(r.pretrain_ms), "ms"},
      {"sampling.pairs_generated", per_fit("sampling/pairs_generated"),
       "count"},
      {"sampling.sgns_pairs_trained", per_fit("core/sgns_pairs_trained"),
       "count"},
      {"core.epochs", static_cast<double>(r.epoch_ms.size()) / fits, "count"},
      {"core.epoch_ms", Mean(r.epoch_ms), "ms"},
      {"core.step_ms", minibatches > 0 ? fit_epoch_ms / minibatches : 0.0,
       "ms"},
      {"core.minibatches", minibatches / fits, "count"},
      {"core.cache_ms", per_fit("core/embedding_cache#ms"), "ms"},
      {"core.gather_ms", per_fit("core/gather#ms"), "ms"},
      {"core.segment_reduce_ms", per_fit("core/segment_reduce#ms"), "ms"},
      {"core.attention_ms", per_fit("core/attention#ms"), "ms"},
      {"core.step_alloc_bytes",
       hybridgnn::obs::GlobalRegistry()
           .GetGauge("core/step_alloc_bytes")
           .value(),
       "bytes"},
      {"tensor.pool_hit", per_fit("tensor/pool_hit"), "count"},
      {"tensor.pool_miss", per_fit("tensor/pool_miss"), "count"},
      {"tensor.arena_bytes", per_fit("tensor/arena_bytes"), "bytes"},
      {"eval.link_prediction_ms", r.eval_ms, "ms"},
      {"eval.queries_ranked", obs("eval/queries_ranked"), "count"},
      {"serve.export_ms", Median(r.export_ms), "ms"},
      {"serve.ckpt_write_ms", Median(r.write_ms), "ms"},
      {"serve.ckpt_load_ms", Median(r.load_ms), "ms"},
      {"serve.recommender_build_ms", Median(r.build_ms), "ms"},
      {"serve.topk_us", r.topk_us, "us"},
      {"serve.queue_wait_p50_ms", svc.queue_wait_p50_ms, "ms"},
      {"serve.batch_service_p50_ms", svc.batch_service_p50_ms, "ms"},
      {"serve.mean_batch_size", svc.mean_batch_size, "count"},
      {"serve.shed", static_cast<double>(svc.shed), "count"},
      {"serve.errors", static_cast<double>(svc.errors), "count"},
      {"serve.p99_ms", QuietestWindowTailMs(reads), "ms"},
      {"serve.p99_all_ms",
       Quantile(reads.LatenciesMs(), TailQuantile(reads.samples.size())),
       "ms"},
      {"loadgen.late_p99_ms", Quantile(reads.LatenessMs(), 0.99), "ms"},
      {"loadgen.samples", static_cast<double>(reads.samples.size()), "count"},
      {"stream.ingest_ms", Median(r.ingest_ms), "ms"},
      {"stream.frontier_ms", Median(r.frontier_ms), "ms"},
      {"stream.publish_ms", Median(r.publish_ms), "ms"},
      {"stream.dirty_nodes", static_cast<double>(r.dirty_nodes), "count"},
      {"stream.pairs_trained", static_cast<double>(r.pairs_trained), "count"},
      {"stream.publishes", obs("stream/publishes"), "count"},
      {"self.bench_ms", self_ms("bench"), "ms"},
      {"self.data_ms", self_ms("data"), "ms"},
      {"self.sampling_ms", self_ms("sampling"), "ms"},
      {"self.core_ms", self_ms("core"), "ms"},
      {"self.eval_ms", self_ms("eval"), "ms"},
      {"self.serve_ms", self_ms("serve"), "ms"},
      {"self.loadgen_ms", self_ms("loadgen"), "ms"},
      {"self.stream_ms", self_ms("stream"), "ms"},
      {"trace.spans", static_cast<double>(tracer.size()), "count"},
      {"trace.overhead_ms", overhead_s * 1e3, "ms"},
      {"trace.overhead_pct",
       untraced_wall_s > 0.0 ? 100.0 * overhead_s / untraced_wall_s : 0.0,
       "%"},
  };
}

/// Output checks. Returns the failures, empty when every check passes.
std::vector<std::string> CheckOutputs(const PassResult& r) {
  std::vector<std::string> bad = r.errors;
  char buf[256];
  if (!std::isfinite(r.final_loss)) {
    bad.push_back("final training loss is not finite");
  }
  if (!(r.test_auc >= kAucFloor)) {
    std::snprintf(buf, sizeof(buf), "test ROC-AUC %.3f below floor %.1f",
                  r.test_auc, kAucFloor);
    bad.push_back(buf);
  }
  if (r.checked_lists == 0 || r.mismatched_lists > 0) {
    std::snprintf(buf, sizeof(buf),
                  "%zu of %zu sampled served lists differ from brute force",
                  r.mismatched_lists, r.checked_lists);
    bad.push_back(buf);
  }
  // Training the streamed edges into the live store must raise their AUC.
  if (!(r.fresh_auc > r.stale_auc)) {
    std::snprintf(buf, sizeof(buf),
                  "fresh AUC %.3f does not beat stale AUC %.3f on streamed "
                  "edges",
                  r.fresh_auc, r.stale_auc);
    bad.push_back(buf);
  }
  if (r.failed > 0) {
    std::snprintf(buf, sizeof(buf), "%zu of %zu operations failed", r.failed,
                  r.attempted);
    bad.push_back(buf);
  }
  return bad;
}

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 size_t attempted, size_t failed) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--smoke 1]\nworkloads:",
               argv0);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, out_dir = ".bench_out";
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (flag == "--smoke") {
      smoke = std::atoi(value) != 0;
    } else {
      return Usage(argv[0]);
    }
  }
  std::optional<WorkloadSpec> chosen;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) chosen = w;
  }
  if (argc % 2 == 0 || !chosen || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return Usage(argv[0]);
  }
  if (smoke) {
    chosen->scale = std::min(chosen->scale, 1.0);
    chosen->setup_reps = 1;
  }
  const WorkloadSpec* spec = &*chosen;
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "refusing to run: %s is set, which would measure a "
                   "different program\n",
                   name);
      return 2;
    }
  }
  const size_t cpus = AllowedCpus().size();
  if (cpus < kBusyThreads) {
    std::fprintf(stderr,
                 "refusing to run: %zu CPUs available, the live phase keeps "
                 "%zu threads busy\n",
                 cpus, kBusyThreads);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  std::printf("e2e_bench %s seed=%llu seconds=%g trace=%d kernels=%s "
              "threads: fit=%zu eval=%zu scoring=%zu topk=%zu generator=1 "
              "ingest=1\n",
              spec->name, static_cast<unsigned long long>(seed), seconds,
              trace,
              hybridgnn::kernels::BackendName(
                  hybridgnn::kernels::ActiveBackend()),
              kFitThreads, kTrainThreads, kScoringThreads, kTopKThreads);

  Tracer untraced(false, Clock::now());
  PassResult result =
      PipelineRunner(*spec, seed, seconds, out_dir, untraced).Run();
  std::vector<Metric> metrics = EndToEndMetrics(*spec, result);
  if (trace == 1) {
    const double untraced_wall_s = result.wall_s;
    Tracer traced(true, Clock::now());
    const size_t fit_reps = spec->epochs > 0 ? result.fit_s.size() : 0;
    result =
        PipelineRunner(*spec, seed, seconds, out_dir, traced, fit_reps).Run();
    metrics = PerLayerMetrics(*spec, result, traced, untraced_wall_s);
    const std::string path = out_dir + "/trace-" + spec->name + "-" +
                             std::to_string(seed) + ".json";
    if (!traced.WriteChromeTrace(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("trace: %zu spans -> %s\n", traced.size(), path.c_str());
  }

  const std::vector<std::string> bad = CheckOutputs(result);
  // Failures go to stderr too, where a harness that keeps only the last
  // stdout line still shows them.
  for (const std::string& b : bad) {
    std::printf("CHECK FAILED: %s\n", b.c_str());
    std::fprintf(stderr, "CHECK FAILED: %s\n", b.c_str());
  }
  for (const std::string& n : result.failure_notes) {
    std::fprintf(stderr, "  %s\n", n.c_str());
  }
  std::printf("inputs=%016llx\n",
              static_cast<unsigned long long>(result.input_fingerprint));
  const OpenLoopResult& reads = LatencyReads(*spec, result);
  const std::vector<double> late = reads.LatenessMs();
  const double minibatches = result.fit_obs.count("core/minibatches")
                                 ? result.fit_obs.at("core/minibatches")
                                 : 0.0;
  std::printf("fits=%zu epochs=%zu minibatches=%.0f final_loss=%.5f "
              "checked_lists=%zu latency_samples=%zu late_p99_ms=%.3f "
              "late_max_ms=%.3f timed_ingest_batches=%zu "
              "stale_auc=%.3f wall_s=%.2f\n",
              result.fit_s.size(), result.epoch_ms.size(), minibatches,
              result.final_loss, result.checked_lists, reads.samples.size(),
              Quantile(late, 0.99), Quantile(late, 1.0), result.ingest_ms.size(),
              result.stale_auc, result.wall_s);
  PrintResult(metrics, bad.empty(), result.attempted, result.failed);
  return bad.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
