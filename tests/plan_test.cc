// Differential tests for compiled execution plans (src/plan): every op the
// tape can record must replay bit-identically to the eager step it was
// traced from — loss values and parameter gradients — under heap and pooled
// tensors, scalar and AVX2 kernel backends, and 1/4 workers. Mirrors
// arena_test.cc's heap-vs-arena differential, one layer up: eager-vs-replay.
//
// Also pins the operational contract: warm replays allocate nothing, frozen
// parameters produce no gradients, un-annotated ops poison the trace (the
// caller stays eager), escaping a traced Var past Finalize CHECK-fails, the
// HYBRIDGNN_PLAN env var overrides FitOptions{compile_plan} both ways, and
// GATNE trains to bitwise-identical embeddings with compile_plan on and
// off.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/gatne.h"
#include "common/rng.h"
#include "graph/frontier.h"
#include "graph/metapath.h"
#include "kernels/kernels.h"
#include "nn/sparse.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "tensor/autograd.h"
#include "tensor/init.h"
#include "tensor/pool.h"
#include "test_util.h"

namespace hybridgnn {
namespace {

using ag::Var;

std::vector<uint32_t> Bits(const Tensor& t) {
  std::vector<uint32_t> out(t.size());
  if (!t.empty()) std::memcpy(out.data(), t.data(), t.size() * sizeof(float));
  return out;
}

std::vector<Var> MakeParams(uint64_t seed) {
  Rng rng(seed);
  auto mk = [&](size_t r, size_t c) {
    Tensor t(r, c);
    UniformInit(t, rng, -0.8f, 0.8f);
    return ag::Param(std::move(t));
  };
  // Same fixed menu as arena_test.cc: a [3,4] pair, a [4,2] projection, a
  // [1,4] bias row, and [3,1]/[2,1] score columns.
  return {mk(3, 4), mk(4, 2), mk(3, 4), mk(1, 4), mk(3, 1), mk(2, 1)};
}

struct CaseResult {
  std::vector<uint32_t> loss_bits;
  std::vector<std::vector<uint32_t>> grad_bits;
};

using GraphFn = std::function<Var(const std::vector<Var>&)>;
// Pushes the replay-bound slot arrays (gather indices, segment indptrs, BCE
// targets) in recorded slot order. Null for graphs with no bound inputs.
using BindFn = std::function<void(plan::StepInputs*)>;

constexpr uint64_t kSeed = 0xA12EA;

CaseResult RunEager(const GraphFn& build, uint64_t seed) {
  pool::PoolScope with_pool(true);
  std::vector<Var> params = MakeParams(seed);
  CaseResult r;
  {
    ag::TapeScope tape;
    Var loss = build(params);
    ag::Backward(loss);
    r.loss_bits = Bits(loss->value);
  }
  for (const Var& p : params) r.grad_bits.push_back(Bits(p->grad));
  return r;
}

// Records the graph once, then replays it `replays` times, asserting every
// replay reproduces the same bits (grads reset to empty between replays so
// accumulation starts from scratch without a +0.0f that could flip -0.0).
CaseResult RunCompiled(const GraphFn& build, const BindFn& bind,
                       uint64_t seed, bool pooled, const char* what,
                       int replays = 2) {
  pool::PoolScope pool_scope(pooled);
  std::vector<Var> params = MakeParams(seed);
  std::unique_ptr<plan::CompiledStep> step;
  {
    ag::TapeScope tape;
    plan::Recorder rec;
    Var loss = build(params);
    step = rec.Finalize(loss);
    EXPECT_NE(step, nullptr) << what << ": trace poisoned: "
                             << rec.poison_reason();
  }
  CaseResult first;
  if (!step) return first;
  for (int it = 0; it < replays; ++it) {
    for (const Var& p : params) p->grad = Tensor();
    CaseResult cur;
    {
      ag::TapeScope tape;
      plan::StepInputs in;
      if (bind) bind(&in);
      Var loss = step->ReplayTrain(in);
      ag::Backward(loss);
      cur.loss_bits = Bits(loss->value);
    }
    for (const Var& p : params) cur.grad_bits.push_back(Bits(p->grad));
    if (it == 0) {
      first = std::move(cur);
    } else {
      EXPECT_EQ(cur.loss_bits, first.loss_bits)
          << what << ": replay " << it << " loss drifted";
      EXPECT_EQ(cur.grad_bits, first.grad_bits)
          << what << ": replay " << it << " grads drifted";
    }
  }
  return first;
}

void ExpectCompiledMatchesEager(const GraphFn& build, const BindFn& bind,
                                const char* what) {
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::Avx2Available()) backends.push_back(kernels::Backend::kAvx2);
  for (kernels::Backend backend : backends) {
    kernels::ScopedBackend guard(backend);
    const CaseResult eager = RunEager(build, kSeed);
    for (bool pooled : {false, true}) {
      const CaseResult compiled =
          RunCompiled(build, bind, kSeed, pooled, what);
      EXPECT_EQ(eager.loss_bits, compiled.loss_bits)
          << what << ": loss differs (pooled=" << pooled
          << ", backend=" << static_cast<int>(backend) << ")";
      ASSERT_EQ(eager.grad_bits.size(), compiled.grad_bits.size());
      for (size_t i = 0; i < eager.grad_bits.size(); ++i) {
        EXPECT_EQ(eager.grad_bits[i], compiled.grad_bits[i])
            << what << ": grad of param " << i << " differs (pooled="
            << pooled << ", backend=" << static_cast<int>(backend) << ")";
      }
    }
  }
}

// Shared frontiers for the segment-op cases. Static storage so the bind
// spans stay valid for the whole Replay call.
const MinibatchFrontier& GatherFrontier() {
  // Two segments over p[0]'s 3 rows, with a duplicate inside a segment.
  static const MinibatchFrontier f{{0, 2, 5}, {2, 0, 2, 1, 0}};
  return f;
}
const MinibatchFrontier& RowFrontier() {
  // Segments p[0]'s own rows: [0,1) and [1,3). No indices (reduce-only).
  static const MinibatchFrontier f{{0, 1, 3}, {}};
  return f;
}
const MinibatchFrontier& EmptySegFrontier() {
  // Middle segment is empty — must reduce to a zero row on both paths.
  static const MinibatchFrontier f{{0, 2, 2, 4}, {0, 1, 2, 0}};
  return f;
}

TEST(PlanDifferential, EveryOpBitIdentical) {
  struct Case {
    const char* name;
    GraphFn build;
    BindFn bind;
  };
  const std::vector<Case> cases = {
      {"MatMul",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::MatMul(p[0], p[1]));
       },
       nullptr},
      {"Add",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::Add(p[0], p[2]));
       },
       nullptr},
      {"Sub",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::Sub(p[0], p[2]));
       },
       nullptr},
      {"Mul",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::Mul(p[0], p[2]));
       },
       nullptr},
      {"AddRowBroadcast",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::AddRowBroadcast(p[0], p[3]));
       },
       nullptr},
      {"ScaleNeg",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::Neg(ag::Scale(p[0], 1.7f)));
       },
       nullptr},
      {"Transpose",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::MatMul(ag::Transpose(p[0]), p[2]));
       },
       nullptr},
      {"Sigmoid",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::Sigmoid(p[0]));
       },
       nullptr},
      {"Tanh",
       [](const std::vector<Var>& p) { return ag::SumAll(ag::Tanh(p[0])); },
       nullptr},
      {"Relu",
       [](const std::vector<Var>& p) { return ag::SumAll(ag::Relu(p[0])); },
       nullptr},
      {"LogSigmoid",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::LogSigmoid(p[0]));
       },
       nullptr},
      {"SoftmaxRows",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::Mul(ag::SoftmaxRows(p[0]), p[2]));
       },
       nullptr},
      {"RowwiseDot",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::RowwiseDot(p[0], p[2]));
       },
       nullptr},
      {"MeanRows",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::MeanRows(p[0]));
       },
       nullptr},
      {"SumRows",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::SumRows(p[0]));
       },
       nullptr},
      {"MeanAll",
       [](const std::vector<Var>& p) { return ag::MeanAll(p[0]); },
       nullptr},
      {"ConcatRows",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::ConcatRows({p[0], p[2]}));
       },
       nullptr},
      {"ConcatCols",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::ConcatCols({p[0], p[2]}));
       },
       nullptr},
      {"SliceRows",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::SliceRows(p[0], 1, 2));
       },
       nullptr},
      {"GatherRowsWithDuplicates",
       [](const std::vector<Var>& p) {
         return ag::SumAll(
             ag::GatherRows(p[0], std::vector<int32_t>{2, 0, 2, 1}));
       },
       [](plan::StepInputs* in) {
         static const std::vector<int32_t> idx = {2, 0, 2, 1};
         in->i32.push_back(idx);
       }},
      {"BceWithLogits",
       [](const std::vector<Var>& p) {
         return ag::BceWithLogits(p[4], {1.0f, 0.0f, 1.0f});
       },
       [](plan::StepInputs* in) {
         static const std::vector<float> y = {1.0f, 0.0f, 1.0f};
         in->f32.push_back(y);
       }},
      {"SgnsLoss",
       [](const std::vector<Var>& p) { return ag::SgnsLoss(p[4], p[5]); },
       nullptr},
      {"AttentionShapedComposite",
       [](const std::vector<Var>& p) {
         Var h = ag::Tanh(ag::MatMul(p[0], p[1]));          // [3,2]
         Var w = ag::SoftmaxRows(ag::Transpose(
             ag::RowwiseDot(h, h)));                        // [1,3]
         Var mixed = ag::MatMul(w, p[2]);                   // [1,4]
         return ag::SumAll(ag::AddRowBroadcast(mixed, p[3]));
       },
       nullptr},
      {"ConstantMul",
       [](const std::vector<Var>& p) {
         Var c = ag::Constant(Tensor::Full(3, 4, 0.25f));
         return ag::SumAll(ag::Mul(c, p[0]));
       },
       nullptr},
      {"GatherSegmentedMean",
       [](const std::vector<Var>& p) {
         Var g = GatherRowsSegmented(p[0], GatherFrontier());
         return ag::SumAll(SegmentMean(g, GatherFrontier()));
       },
       [](plan::StepInputs* in) {
         const MinibatchFrontier& f = GatherFrontier();
         in->i32.push_back(f.indices);
         in->szs.push_back(f.indptr);  // gather's segment grouping
         in->szs.push_back(f.indptr);  // the mean reduction
       }},
      {"GatherSegmentedSum",
       [](const std::vector<Var>& p) {
         Var g = GatherRowsSegmented(p[0], GatherFrontier());
         return ag::SumAll(SegmentSum(g, GatherFrontier()));
       },
       [](plan::StepInputs* in) {
         const MinibatchFrontier& f = GatherFrontier();
         in->i32.push_back(f.indices);
         in->szs.push_back(f.indptr);
         in->szs.push_back(f.indptr);
       }},
      {"GatherSegmentedMax",
       [](const std::vector<Var>& p) {
         Var g = GatherRowsSegmented(p[0], GatherFrontier());
         return ag::SumAll(SegmentMax(g, GatherFrontier()));
       },
       [](plan::StepInputs* in) {
         const MinibatchFrontier& f = GatherFrontier();
         in->i32.push_back(f.indices);
         in->szs.push_back(f.indptr);
         in->szs.push_back(f.indptr);
       }},
      {"SegmentSumDirect",
       [](const std::vector<Var>& p) {
         return ag::SumAll(SegmentSum(p[0], RowFrontier()));
       },
       [](plan::StepInputs* in) {
         in->szs.push_back(RowFrontier().indptr);
       }},
      {"SegmentMeanEmptySegment",
       [](const std::vector<Var>& p) {
         Var g = GatherRowsSegmented(p[0], EmptySegFrontier());
         return ag::SumAll(SegmentMean(g, EmptySegFrontier()));
       },
       [](plan::StepInputs* in) {
         const MinibatchFrontier& f = EmptySegFrontier();
         in->i32.push_back(f.indices);
         in->szs.push_back(f.indptr);
         in->szs.push_back(f.indptr);
       }},
      {"FusedElementwiseChain",
       [](const std::vector<Var>& p) {
         return ag::SumAll(ag::Tanh(ag::Relu(ag::Scale(p[0], 0.5f))));
       },
       nullptr},
  };
  for (const auto& c : cases) ExpectCompiledMatchesEager(c.build, c.bind,
                                                         c.name);
}

// Data-parallel minibatch pattern: each worker records and
// replays its own CompiledStep over shared leaves under a per-worker
// GradSinkScope; the reduced gradient must equal serial eager accumulation
// bit for bit. Under TSan this is the compiled-path race check.
TEST(PlanDifferential, ParallelWorkerReplaysMatchSerialEager) {
  constexpr size_t kWorkers = 4;
  std::vector<Var> params = MakeParams(0xFEED);
  auto worker_loss = [&](size_t w) {
    Var scaled = ag::Scale(params[0], 0.5f + static_cast<float>(w));
    return ag::SumAll(ag::RowwiseDot(scaled, params[2]));
  };

  // Serial eager reference: accumulate all workers' grads in worker order.
  for (const Var& p : params) p->grad = Tensor();
  for (size_t w = 0; w < kWorkers; ++w) {
    ag::TapeScope tape;
    ag::Backward(worker_loss(w));
  }
  const std::vector<uint32_t> serial_bits = Bits(params[0]->grad);

  for (const Var& p : params) p->grad = Tensor();
  std::vector<ag::GradSinkScope::Sink> sinks(kWorkers);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w]() {
      pool::PoolScope with_pool(true);
      std::unique_ptr<plan::CompiledStep> step;
      {
        ag::TapeScope tape;
        plan::Recorder rec;
        Var loss = worker_loss(w);
        step = rec.Finalize(loss);
      }
      ASSERT_NE(step, nullptr);
      ag::GradSinkScope sink_scope(&sinks[w]);
      ag::TapeScope tape;
      ag::Backward(step->ReplayTrain({}));
    });
  }
  for (auto& t : threads) t.join();
  for (size_t w = 0; w < kWorkers; ++w) {
    for (auto& [node, grad] : sinks[w]) node->AccumulateGrad(grad);
  }
  EXPECT_EQ(Bits(params[0]->grad), serial_bits);
}

// Frozen parameters (PassOptions::frozen) get their backward work elided:
// replay produces no gradient for them while every other grad still matches
// eager bit for bit.
TEST(PlanTest, FrozenParamProducesNoGradient) {
  // Tanh(p0) reaches only the frozen leaf, so its backward is elided
  // entirely; Tanh(p2) stays trainable and must match eager exactly.
  GraphFn build = [](const std::vector<Var>& p) {
    return ag::SumAll(ag::Add(ag::Tanh(p[0]), ag::Tanh(p[2])));
  };
  const CaseResult eager = RunEager(build, kSeed);

  pool::PoolScope with_pool(true);
  std::vector<Var> params = MakeParams(kSeed);
  plan::PassOptions opts;
  opts.frozen.insert(params[0].get());
  std::unique_ptr<plan::CompiledStep> step;
  {
    ag::TapeScope tape;
    plan::Recorder rec;
    Var loss = build(params);
    step = rec.Finalize(loss, opts);
  }
  ASSERT_NE(step, nullptr);
  EXPECT_GT(step->plan().stats.dead_grad_elided, 0u);
  for (const Var& p : params) p->grad = Tensor();
  {
    ag::TapeScope tape;
    Var loss = step->ReplayTrain({});
    ag::Backward(loss);
    EXPECT_EQ(Bits(loss->value), eager.loss_bits);
  }
  EXPECT_TRUE(params[0]->grad.empty())
      << "frozen param must not receive a gradient";
  EXPECT_EQ(Bits(params[2]->grad), eager.grad_bits[2])
      << "non-frozen grad must still match eager";
}

// Un-annotated ops (raw ag::MakeOp — SpMM here) poison the trace: Finalize
// returns nullptr with a reason and the caller stays on the eager path.
TEST(PlanTest, UnannotatedOpPoisonsTrace) {
  obs::Counter& poisoned =
      obs::GlobalRegistry().GetCounter("plan/trace_poisoned");
  const uint64_t before = poisoned.value();
  SparseMatrix s;
  s.rows = 3;
  s.cols = 3;
  s.offsets = {0, 1, 2, 3};
  s.col_idx = {0, 1, 2};
  s.values = {1.0f, 1.0f, 1.0f};
  s.symmetric = true;
  pool::PoolScope with_pool(true);
  std::vector<Var> params = MakeParams(kSeed);
  ag::TapeScope tape;
  plan::Recorder rec;
  Var loss = ag::SumAll(SpMM(s, params[0]));
  std::unique_ptr<plan::CompiledStep> step = rec.Finalize(loss);
  EXPECT_EQ(step, nullptr);
  EXPECT_TRUE(rec.poisoned());
  EXPECT_FALSE(rec.poison_reason().empty());
  EXPECT_EQ(poisoned.value(), before + 1);
  // The eager graph is untouched by the failed trace.
  ag::Backward(loss);
  EXPECT_FALSE(params[0]->grad.empty());
}

// Steady-state contract: once frames are warm, replays stop allocating —
// pool misses flat, arena footprint flat, and the executor's own
// replay_alloc_bytes gauge reads zero.
TEST(PlanTest, WarmReplayStopsAllocating) {
  GraphFn build = [](const std::vector<Var>& p) {
    Var h = ag::Relu(ag::MatMul(p[0], p[1]));
    return ag::SumAll(ag::RowwiseDot(h, h));
  };
  pool::PoolScope with_pool(true);
  std::vector<Var> params = MakeParams(0xBEEF);
  std::unique_ptr<plan::CompiledStep> step;
  {
    ag::TapeScope tape;
    plan::Recorder rec;
    Var loss = build(params);
    step = rec.Finalize(loss);
  }
  ASSERT_NE(step, nullptr);
  auto replay = [&]() {
    ag::TapeScope tape;
    Var loss = step->ReplayTrain({});
    ag::Backward(loss);
    for (const Var& p : params) p->ZeroGrad();
  };
  for (int i = 0; i < 10; ++i) replay();  // warmup: grow pool + frames
  const uint64_t miss_before = pool::MissBytes();
  const uint64_t arena_before = ag::Tape::TotalReservedBytes();
  for (int i = 0; i < 50; ++i) replay();
  EXPECT_EQ(pool::MissBytes(), miss_before)
      << "warm replays should not miss the tensor pool";
  EXPECT_EQ(ag::Tape::TotalReservedBytes(), arena_before)
      << "warm replays should not grow any tape arena";
  EXPECT_EQ(obs::GlobalRegistry().GetGauge("plan/replay_alloc_bytes").value(),
            0.0)
      << "executor must report zero forward allocation on warm replays";
}

TEST(PlanTest, EnvVarOverridesRequestedSetting) {
  setenv("HYBRIDGNN_PLAN", "off", 1);
  EXPECT_FALSE(plan::Enabled(true));
  setenv("HYBRIDGNN_PLAN", "0", 1);
  EXPECT_FALSE(plan::Enabled(true));
  setenv("HYBRIDGNN_PLAN", "on", 1);
  EXPECT_TRUE(plan::Enabled(false));
  setenv("HYBRIDGNN_PLAN", "1", 1);
  EXPECT_TRUE(plan::Enabled(false));
  unsetenv("HYBRIDGNN_PLAN");
  EXPECT_TRUE(plan::Enabled(true));
  EXPECT_FALSE(plan::Enabled(false));
}

TEST(PlanTest, CacheCountsRetracesPerGeneration) {
  obs::Counter& retraces = obs::GlobalRegistry().GetCounter("plan/retraces");
  plan::PlanCache cache;
  cache.BeginGeneration(1);
  const uint64_t before = retraces.value();
  plan::PlanCache::Entry& a = cache.Slot(0x11);  // first trace: not a retrace
  EXPECT_EQ(retraces.value(), before);
  cache.Slot(0x22);  // second structure this generation
  EXPECT_EQ(retraces.value(), before + 1);
  EXPECT_EQ(&cache.Slot(0x11), &a);  // existing entry: no new retrace
  EXPECT_EQ(retraces.value(), before + 1);
  EXPECT_EQ(cache.size(), 2u);
  cache.BeginGeneration(2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Find(0x11), nullptr);
}

// A traced Var that outlives Finalize would dangle into the executor's
// raw-pointer world; the recorder CHECK-fails with a clear message instead.
TEST(PlanDeathTest, EscapedTracedVarFailsFinalize) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        pool::PoolScope with_pool(true);
        std::vector<Var> params = MakeParams(kSeed);
        ag::TapeScope tape;
        plan::Recorder rec;
        Var kept = ag::Tanh(params[0]);  // escapes past Finalize
        Var loss = ag::SumAll(kept);
        rec.Finalize(loss);
      },
      "escaped past plan finalization");
}

// ---- Model end-to-end: compile_plan on must be bitwise invisible ----------

std::vector<MetapathScheme> TinySchemes(const MultiplexHeteroGraph& g) {
  std::vector<MetapathScheme> schemes;
  for (RelationId r = 0; r < g.num_relations(); ++r) {
    schemes.push_back(MetapathScheme::ParseIntra(g, "U-I-U", r).value());
    schemes.push_back(MetapathScheme::ParseIntra(g, "I-U-I", r).value());
  }
  return schemes;
}

std::vector<uint32_t> AllEmbeddingBits(const EmbeddingModel& m,
                                       const MultiplexHeteroGraph& g) {
  std::vector<uint32_t> bits;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      const std::vector<uint32_t> row = Bits(m.Embedding(v, r));
      bits.insert(bits.end(), row.begin(), row.end());
    }
  }
  return bits;
}

TEST(PlanModelTest, GatneCompiledMatchesEagerBitwise) {
  MultiplexHeteroGraph g = testing::SmallBipartite();
  Gatne::Options o;
  o.base_dim = 16;
  o.edge_dim = 4;
  o.attn_hidden = 8;
  o.fanout = 3;
  o.epochs = 2;
  o.batch_size = 64;
  o.max_pairs_per_epoch = 500;
  o.pretrain_base = false;
  o.restore_best = false;
  o.corpus.num_walks_per_node = 3;
  o.corpus.walk_length = 4;
  o.corpus.window = 2;
  o.seed = 123;

  FitOptions off;
  off.num_threads = 1;
  off.compile_plan = false;
  FitOptions on = off;
  on.compile_plan = true;

  obs::MetricRegistry& reg = obs::GlobalRegistry();
  const uint64_t traces_before = reg.GetCounter("plan/traces").value();
  const uint64_t replays_before = reg.GetCounter("plan/replays").value();
  const uint64_t poisoned_before =
      reg.GetCounter("plan/trace_poisoned").value();

  auto schemes = TinySchemes(g);
  Gatne eager(o, schemes);
  Gatne compiled(o, schemes);
  ASSERT_TRUE(eager.Fit(g, off).ok());
  ASSERT_TRUE(compiled.Fit(g, on).ok());

  EXPECT_GT(reg.GetCounter("plan/traces").value(), traces_before);
  EXPECT_GT(reg.GetCounter("plan/replays").value(), replays_before);
  EXPECT_EQ(reg.GetCounter("plan/trace_poisoned").value(), poisoned_before);
  EXPECT_EQ(AllEmbeddingBits(eager, g), AllEmbeddingBits(compiled, g))
      << "compile_plan changed GATNE training results";
}

}  // namespace
}  // namespace hybridgnn
