// Parallel-pipeline throughput: skip-gram pair-stream fill, Hogwild SGNS
// on the stream, and batched evaluation at 1/2/4/8 worker threads on the
// Taobao profile. Reports pairs/s plus speedup over the 1-thread row. Each
// worker draws its share of one pass from its own forked Rng stream, the
// way SgnsEmbedder::Train splits an epoch.
//
// Note: speedups only materialize with as many physical cores as workers;
// on a single-core host all rows collapse to ~1x (scheduling overhead
// included), which is expected.
#include <atomic>
#include <cstdio>

#include "baselines/deepwalk.h"
#include "bench_json.h"
#include "bench_util.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "sampling/corpus.h"
#include "sampling/negative_sampler.h"
#include "sampling/sgns.h"

namespace hybridgnn::bench {
namespace {

void Run() {
  BenchEnv env = GetBenchEnv();
  PrintHeaderBanner("parallel pipeline throughput (walks / SGNS / eval)");
  Prepared prep = Prepare("taobao", env.scale, /*seed=*/17);
  const MultiplexHeteroGraph& g = prep.split.train_graph;
  std::printf("graph: %zu nodes, %zu edges, %zu relations\n\n",
              g.num_nodes(), g.edges().size(), g.num_relations());

  CorpusOptions co;
  co.num_walks_per_node = 6;
  co.walk_length = 8;
  co.window = 3;
  const PairStream stream = PairStream::Uniform(g, co, /*edge_copies=*/2);
  const size_t pass = stream.pairs_per_pass();
  const size_t walks = stream.walks_per_pass();
  std::printf("one pass: %zu walks, %zu pairs\n\n", walks, pass);

  NegativeSampler sampler(g);
  BenchReport report("micro_parallel");
  const size_t threads_axis[] = {1, 2, 4, 8};

  std::printf("%-8s %12s %12s %12s %10s %10s\n", "threads", "stream_ms",
              "pairs/s", "sgns_ms", "pairs/s", "eval_ms");
  double stream_base = 0.0, sgns_base = 0.0, eval_base = 0.0;
  for (size_t threads : threads_axis) {
    // --- stream fill: draw one pass, split across workers ---
    const Rng master(1234);
    std::atomic<size_t> drawn{0};
    Timer t;
    RunParallel(threads, threads, [&](size_t w) {
      Rng wrng = master.Fork(w + 1);
      PairStream::Reader reader(
          stream, pass * (w + 1) / threads - pass * w / threads,
          walks * (w + 1) / threads - walks * w / threads, wrng);
      SkipGramPair p;
      size_t n = 0;
      while (reader.Next(&p)) ++n;
      drawn += n;
    });
    const double stream_ms = t.ElapsedMillis();
    // --- SGNS: one full pass of the stream ---
    SgnsOptions so;
    so.dim = 64;
    so.epochs = 1;
    so.max_pairs_per_epoch = 0;
    so.num_threads = threads;
    Rng srng(55);
    SgnsEmbedder emb(g.num_nodes(), so.dim, srng);
    t.Reset();
    HYBRIDGNN_CHECK_OK(emb.Train(stream, sampler, so, srng));
    const double sgns_ms = t.ElapsedMillis();
    // --- evaluation (batched scoring + parallel query ranking) ---
    EvalOptions eo;
    eo.max_ranking_queries = 60;
    eo.num_threads = threads;
    DeepWalk::Options dwo;
    dwo.sgns.dim = 64;
    DeepWalk scorer(dwo);
    FitOptions fit_opts;
    fit_opts.num_threads = threads;
    HYBRIDGNN_CHECK(scorer.Fit(g, fit_opts).ok());
    Rng erng(88);
    t.Reset();
    (void)EvaluateLinkPrediction(scorer, prep.dataset.graph, prep.split, eo,
                                 erng);
    const double eval_ms = t.ElapsedMillis();

    if (threads == 1) {
      stream_base = stream_ms;
      sgns_base = sgns_ms;
      eval_base = eval_ms;
    }
    const double stream_pairs_per_s =
        stream_ms > 0 ? 1e3 * static_cast<double>(drawn) / stream_ms : 0;
    const double sgns_pairs_per_s =
        sgns_ms > 0 ? 1e3 * static_cast<double>(pass) / sgns_ms : 0;
    report.AddStage("stream", threads, stream_ms, stream_pairs_per_s);
    report.AddStage("sgns", threads, sgns_ms, sgns_pairs_per_s);
    report.AddStage("eval", threads, eval_ms, 0.0);
    std::printf("%-8zu %9.1f ms %12.0f %9.1f ms %10.0f %7.1f ms\n", threads,
                stream_ms, stream_pairs_per_s, sgns_ms, sgns_pairs_per_s,
                eval_ms);
    if (threads != 1) {
      std::printf("%-8s %9.2fx %12s %9.2fx %10s %7.2fx\n", "",
                  stream_ms > 0 ? stream_base / stream_ms : 0.0, "",
                  sgns_ms > 0 ? sgns_base / sgns_ms : 0.0, "",
                  eval_ms > 0 ? eval_base / eval_ms : 0.0);
    }
  }
  report.Write();
}

}  // namespace
}  // namespace hybridgnn::bench

int main() {
  hybridgnn::bench::Run();
  return 0;
}
