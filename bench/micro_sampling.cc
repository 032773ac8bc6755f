// Micro-benchmarks of the sampling substrate: alias tables, walks,
// randomized inter-relationship exploration, negative sampling, the
// skip-gram pair stream.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "data/profiles.h"
#include "sampling/alias.h"
#include "sampling/corpus.h"
#include "sampling/exploration.h"
#include "sampling/negative_sampler.h"
#include "sampling/walker.h"

namespace hybridgnn {
namespace {

const Dataset& KuaishouDataset() {
  static const Dataset* ds = [] {
    auto d = MakeDataset("kuaishou", 0.2, 42);
    HYBRIDGNN_CHECK(d.ok());
    return new Dataset(std::move(d).value());
  }();
  return *ds;
}

void BM_AliasTableBuild(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> weights(state.range(0));
  for (auto& w : weights) w = rng.UniformDouble() + 0.01;
  for (auto _ : state) {
    AliasTable t(weights);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * weights.size());
}
BENCHMARK(BM_AliasTableBuild)->Arg(1000)->Arg(100000);

void BM_AliasTableSample(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> weights(100000);
  for (auto& w : weights) w = rng.UniformDouble() + 0.01;
  AliasTable t(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasTableSample);

void BM_MetapathWalk(benchmark::State& state) {
  const auto& ds = KuaishouDataset();
  Rng rng(3);
  const auto& scheme = ds.schemes.front();
  NodeId start = ds.graph.NodesOfType(scheme.source_type()).front();
  for (auto _ : state) {
    auto walk = MetapathWalk(ds.graph, scheme, start, 10, rng);
    benchmark::DoNotOptimize(walk);
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_MetapathWalk);

void BM_ExplorationWalk(benchmark::State& state) {
  const auto& ds = KuaishouDataset();
  Rng rng(4);
  for (auto _ : state) {
    auto walk = ExplorationWalk(ds.graph, 0, 10, rng);
    benchmark::DoNotOptimize(walk);
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_ExplorationWalk);

void BM_ExplorationNeighbors(benchmark::State& state) {
  const auto& ds = KuaishouDataset();
  Rng rng(5);
  for (auto _ : state) {
    auto levels = ExplorationNeighbors(ds.graph, 0, state.range(0), 6, rng);
    benchmark::DoNotOptimize(levels);
  }
}
BENCHMARK(BM_ExplorationNeighbors)->Arg(1)->Arg(2)->Arg(3);

void BM_NegativeSampling(benchmark::State& state) {
  const auto& ds = KuaishouDataset();
  NegativeSampler sampler(ds.graph);
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleLike(0, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NegativeSampling);

// Draws one pass of the pretraining stream (uniform walks plus two edge
// copies): the sampling cost SGNS pretraining pays per pair.
void BM_PairStream(benchmark::State& state) {
  const auto& ds = KuaishouDataset();
  CorpusOptions options;
  options.num_walks_per_node = 1;
  options.walk_length = 6;
  options.window = 2;
  const PairStream stream =
      PairStream::Uniform(ds.graph, options, /*edge_copies=*/2);
  Rng rng(7);
  size_t pairs = 0;
  for (auto _ : state) {
    PairStream::Reader reader(stream, stream.pairs_per_pass(),
                              stream.walks_per_pass(), rng);
    SkipGramPair p{};
    while (reader.Next(&p)) ++pairs;
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(static_cast<int64_t>(pairs));
}
BENCHMARK(BM_PairStream);

}  // namespace
}  // namespace hybridgnn

#define HYBRIDGNN_BENCH_NAME "micro_sampling"
#include "gbench_json_main.h"
