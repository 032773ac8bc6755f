// CompiledStep: replays an optimized StepPlan with zero per-step graph
// construction. Every forward case and every backward case below replicates
// the corresponding eager op / backward-closure body in tensor/autograd.cc
// (and nn/sparse.cc for the segment ops) loop for loop, so a replayed step
// is bit-identical to the eager step it was traced from. When editing an
// eager closure, update the mirror here and let tests/plan_test.cc prove the
// bits still match.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "kernels/kernels.h"
#include "nn/sparse_grads.h"
#include "obs/metrics.h"
#include "plan/eval.h"
#include "plan/plan.h"
#include "tensor/pool.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn::plan {

namespace detail {

bool IsSlotlessValueOp(OpKind kind) {
  switch (kind) {
    case OpKind::kMatMul:
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kAddRowBroadcast:
    case OpKind::kScale:
    case OpKind::kTranspose:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kRelu:
    case OpKind::kLogSigmoid:
    case OpKind::kSoftmaxRows:
    case OpKind::kRowwiseDot:
    case OpKind::kMeanRows:
    case OpKind::kSumRows:
    case OpKind::kMeanAll:
    case OpKind::kSumAll:
    case OpKind::kConcatRows:
    case OpKind::kConcatCols:
    case OpKind::kSliceRows:
    case OpKind::kEwChain:
      return true;
    default:
      return false;
  }
}

void EvalValueOp(const OpNode& op, std::span<const Tensor* const> args,
                 Tensor* out) {
  switch (op.kind) {
    case OpKind::kMatMul:
      MatMulInto(*args[0], *args[1], out);
      break;
    case OpKind::kAdd:
      AddInto(*args[0], *args[1], out);
      break;
    case OpKind::kSub:
      SubInto(*args[0], *args[1], out);
      break;
    case OpKind::kMul:
      MulInto(*args[0], *args[1], out);
      break;
    case OpKind::kAddRowBroadcast:
      AddRowBroadcastInto(*args[0], *args[1], out);
      break;
    case OpKind::kScale:
      ScaleInto(*args[0], op.alpha, out);
      break;
    case OpKind::kTranspose:
      TransposeInto(*args[0], out);
      break;
    case OpKind::kSigmoid:
      SigmoidInto(*args[0], out);
      break;
    case OpKind::kTanh:
      TanhInto(*args[0], out);
      break;
    case OpKind::kRelu:
      ReluInto(*args[0], out);
      break;
    case OpKind::kLogSigmoid:
      LogSigmoidInto(*args[0], out);
      break;
    case OpKind::kSoftmaxRows:
      SoftmaxRowsInto(*args[0], out);
      break;
    case OpKind::kRowwiseDot:
      RowwiseDotInto(*args[0], *args[1], out);
      break;
    case OpKind::kMeanRows:
      MeanRowsInto(*args[0], out);
      break;
    case OpKind::kSumRows:
      SumRowsInto(*args[0], out);
      break;
    case OpKind::kMeanAll: {
      // Exact eager expression: float(Sum()) * (1/size), both in float.
      const float inv = 1.0f / static_cast<float>(args[0]->size());
      out->At(0, 0) = static_cast<float>(args[0]->Sum()) * inv;
      break;
    }
    case OpKind::kSumAll:
      out->At(0, 0) = static_cast<float>(args[0]->Sum());
      break;
    case OpKind::kConcatRows: {
      size_t at = 0;
      for (const Tensor* part : args) {
        std::memcpy(out->RowPtr(at), part->data(),
                    part->size() * sizeof(float));
        at += part->rows();
      }
      break;
    }
    case OpKind::kConcatCols: {
      for (size_t i = 0; i < out->rows(); ++i) {
        size_t at = 0;
        for (const Tensor* part : args) {
          std::memcpy(out->RowPtr(i) + at, part->RowPtr(i),
                      part->cols() * sizeof(float));
          at += part->cols();
        }
      }
      break;
    }
    case OpKind::kSliceRows:
      std::memcpy(out->data(), args[0]->RowPtr(op.start),
                  out->size() * sizeof(float));
      break;
    case OpKind::kEwChain:
      kernels::EwChainForward(op.stages.data(), op.stages.size(),
                              args[0]->data(), out->data(), out->size());
      break;
    default:
      HYBRIDGNN_CHECK(false)
          << "EvalValueOp: unsupported op " << ag::OpKindName(op.kind);
  }
}

}  // namespace detail

// Per-replay execution state. Buffers are shaped once at frame construction;
// every later replay reuses them, so a warm frame executes with zero heap
// traffic (pool hits only).
struct CompiledStep::Frame {
  std::vector<Tensor> bufs;       // one per planned buffer
  std::vector<Tensor> grads;      // per value id, lazily shaped
  std::vector<uint8_t> grad_set;  // per value id: grads[v] holds this replay
  std::vector<std::vector<int32_t>> i32;   // bound index arrays
  std::vector<std::vector<size_t>> szs;    // bound indptr arrays
  std::vector<std::vector<float>> f32;     // bound float arrays (targets)
  std::vector<std::vector<uint32_t>> amax; // SegmentMax argmax scratch
};

// The backward context installed on the replay's single fat op node: invoking
// it replays the compiled backward order, and its destruction (tape rewind or
// drop of an inference-only node) returns the frame to the freelist.
struct FatOpCtx {
  CompiledStep* step;
  CompiledStep::Frame* frame;

  FatOpCtx(CompiledStep* s, CompiledStep::Frame* f) : step(s), frame(f) {}
  FatOpCtx(FatOpCtx&& o) noexcept : step(o.step), frame(o.frame) {
    o.frame = nullptr;
  }
  FatOpCtx(const FatOpCtx&) = delete;
  FatOpCtx& operator=(const FatOpCtx&) = delete;
  FatOpCtx& operator=(FatOpCtx&&) = delete;
  ~FatOpCtx() {
    if (frame != nullptr) step->ReleaseFrame(frame);
  }

  void operator()(ag::Node& n) { step->RunBackward(*frame, n.grad); }
};

CompiledStep::CompiledStep(StepPlan plan, std::vector<ag::Var> params)
    : plan_(std::move(plan)), params_(std::move(params)) {}

CompiledStep::~CompiledStep() = default;

CompiledStep::Frame* CompiledStep::AcquireFrame() {
  if (!free_frames_.empty()) {
    Frame* f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  auto owned = std::make_unique<Frame>();
  Frame* f = owned.get();
  f->bufs.reserve(plan_.num_buffers);
  for (const auto& [r, c] : plan_.buffer_shapes) {
    f->bufs.push_back(Tensor::Uninit(r, c));
  }
  f->grads.resize(plan_.values.size());
  f->grad_set.assign(plan_.values.size(), 0);
  f->i32.resize(plan_.num_islots);
  f->szs.resize(plan_.num_sslots);
  f->f32.resize(plan_.num_fslots);
  f->amax.resize(plan_.num_amax);
  all_frames_.push_back(std::move(owned));
  return f;
}

void CompiledStep::ReleaseFrame(Frame* f) { free_frames_.push_back(f); }

const Tensor& CompiledStep::Val(Frame& f, int vid) const {
  const ValueInfo& v = plan_.values[vid];
  switch (v.origin) {
    case ValueInfo::Origin::kParam:
      return v.leaf->value;
    case ValueInfo::Origin::kConst:
      return v.const_value;
    case ValueInfo::Origin::kOp:
      break;
  }
  return f.bufs[v.buffer];
}

void CompiledStep::Bind(const StepInputs& in, Frame* f) {
  HYBRIDGNN_CHECK(in.i32.size() == plan_.num_islots &&
                  in.szs.size() == plan_.num_sslots &&
                  in.f32.size() == plan_.num_fslots)
      << "plan Bind: got " << in.i32.size() << "/" << in.szs.size() << "/"
      << in.f32.size() << " bound arrays, plan has " << plan_.num_islots
      << "/" << plan_.num_sslots << "/" << plan_.num_fslots
      << "; step structure changed — retrace";
  for (int oi : plan_.schedule) {
    const OpNode& op = plan_.ops[oi];
    if (op.islot >= 0) {
      HYBRIDGNN_CHECK(in.i32[op.islot].size() == op.islot_len)
          << "plan Bind: index array " << op.islot << " has "
          << in.i32[op.islot].size() << " entries, plan recorded "
          << op.islot_len << "; shape signature changed — retrace";
      f->i32[op.islot].assign(in.i32[op.islot].begin(),
                              in.i32[op.islot].end());
    }
    if (op.sslot >= 0) {
      HYBRIDGNN_CHECK(in.szs[op.sslot].size() == op.sslot_len)
          << "plan Bind: indptr array " << op.sslot << " has "
          << in.szs[op.sslot].size() << " entries, plan recorded "
          << op.sslot_len << "; shape signature changed — retrace";
      f->szs[op.sslot].assign(in.szs[op.sslot].begin(),
                              in.szs[op.sslot].end());
    }
    if (op.fslot >= 0) {
      HYBRIDGNN_CHECK(in.f32[op.fslot].size() == op.fslot_len)
          << "plan Bind: float array " << op.fslot << " has "
          << in.f32[op.fslot].size() << " entries, plan recorded "
          << op.fslot_len << "; shape signature changed — retrace";
      f->f32[op.fslot].assign(in.f32[op.fslot].begin(),
                              in.f32[op.fslot].end());
    }
  }
}

void CompiledStep::RunForward(Frame& f) {
  for (int oi : plan_.schedule) {
    const OpNode& op = plan_.ops[oi];
    Tensor& out = f.bufs[plan_.values[op.out].buffer];
    switch (op.kind) {
      case OpKind::kGatherRows:
      case OpKind::kGatherRowsSegmented: {
        const std::vector<int32_t>& idx = f.i32[op.islot];
        GatherRowsInto(Val(f, op.args[0]),
                       std::span<const int32_t>(idx.data(), idx.size()),
                       &out);
        break;
      }
      case OpKind::kSegmentSum:
      case OpKind::kSegmentMean: {
        const Tensor& x = Val(f, op.args[0]);
        const std::vector<size_t>& indptr = f.szs[op.sslot];
        const size_t segs = indptr.size() - 1;
        if (segs > 0) {
          auto* kernel = op.kind == OpKind::kSegmentSum
                             ? kernels::SegmentSum
                             : kernels::SegmentMean;
          kernel(x.rows() > 0 ? x.RowPtr(0) : nullptr, x.cols(),
                 indptr.data(), segs, out.RowPtr(0));
        }
        break;
      }
      case OpKind::kSegmentMax: {
        const Tensor& x = Val(f, op.args[0]);
        const std::vector<size_t>& indptr = f.szs[op.sslot];
        const size_t segs = indptr.size() - 1;
        std::vector<uint32_t>& amax = f.amax[op.amax];
        amax.resize(segs * x.cols());
        if (segs > 0) {
          kernels::SegmentMax(x.rows() > 0 ? x.RowPtr(0) : nullptr, x.cols(),
                              indptr.data(), segs, out.RowPtr(0),
                              amax.data());
        }
        break;
      }
      case OpKind::kBceWithLogits: {
        // Exact eager loss: per-row stable BCE summed in double, one final
        // float rounding.
        const Tensor& logits = Val(f, op.args[0]);
        const std::vector<float>& tgt = f.f32[op.fslot];
        double loss = 0.0;
        for (size_t i = 0; i < tgt.size(); ++i) {
          const float x = logits.At(i, 0);
          const float y = tgt[i];
          loss += std::max(x, 0.0f) - x * y +
                  std::log1p(std::exp(-std::abs(x)));
        }
        out.At(0, 0) =
            static_cast<float>(loss / static_cast<double>(tgt.size()));
        break;
      }
      default: {
        argv_.clear();
        for (int a : op.args) argv_.push_back(&Val(f, a));
        detail::EvalValueOp(
            op, std::span<const Tensor* const>(argv_.data(), argv_.size()),
            &out);
        break;
      }
    }
  }
}

void CompiledStep::Accum(Frame& f, int vid, const Tensor& contrib) {
  const ValueInfo& v = plan_.values[vid];
  if (!v.requires_grad) return;
  if (v.origin == ValueInfo::Origin::kParam) {
    // Same entry point the eager closures hit: diverts to the thread's
    // GradSinkScope for shared trainable leaves, copy-first otherwise.
    v.leaf->AccumulateGrad(contrib);
    return;
  }
  Tensor& g = f.grads[vid];
  if (!f.grad_set[vid]) {
    if (g.empty()) g = Tensor::Uninit(v.rows, v.cols);
    std::memcpy(g.data(), contrib.data(), contrib.size() * sizeof(float));
    f.grad_set[vid] = 1;
  } else {
    g.AddInPlace(contrib);
  }
}

void CompiledStep::RunBackward(Frame& f, const Tensor& root_grad) {
  const uint64_t before = pool::MissBytes() + ag::Tape::TotalReservedBytes();
  std::fill(f.grad_set.begin(), f.grad_set.end(), 0);
  Accum(f, plan_.root, root_grad);

  for (int oi : plan_.backward_order) {
    const OpNode& op = plan_.ops[oi];
    // Mirrors eager Backward's `if (!node->grad.empty())` guard: an op whose
    // output never received gradient contributes nothing.
    if (!f.grad_set[op.out]) continue;
    const Tensor& G = f.grads[op.out];
    auto req = [&](int vid) { return plan_.values[vid].requires_grad; };
    switch (op.kind) {
      case OpKind::kMatMul: {
        if (req(op.args[0])) {
          Accum(f, op.args[0], MatMulTransB(G, Val(f, op.args[1])));
        }
        if (req(op.args[1])) {
          Accum(f, op.args[1], MatMulTransA(Val(f, op.args[0]), G));
        }
        break;
      }
      case OpKind::kAdd:
        if (req(op.args[0])) Accum(f, op.args[0], G);
        if (req(op.args[1])) Accum(f, op.args[1], G);
        break;
      case OpKind::kSub:
        if (req(op.args[0])) Accum(f, op.args[0], G);
        if (req(op.args[1])) {
          Accum(f, op.args[1], hybridgnn::Scale(G, -1.0f));
        }
        break;
      case OpKind::kMul:
        if (req(op.args[0])) {
          Accum(f, op.args[0], hybridgnn::Mul(G, Val(f, op.args[1])));
        }
        if (req(op.args[1])) {
          Accum(f, op.args[1], hybridgnn::Mul(G, Val(f, op.args[0])));
        }
        break;
      case OpKind::kAddRowBroadcast:
        if (req(op.args[0])) Accum(f, op.args[0], G);
        if (req(op.args[1])) Accum(f, op.args[1], hybridgnn::SumRows(G));
        break;
      case OpKind::kScale:
        if (req(op.args[0])) {
          Accum(f, op.args[0], hybridgnn::Scale(G, op.alpha));
        }
        break;
      case OpKind::kTranspose:
        if (req(op.args[0])) Accum(f, op.args[0], hybridgnn::Transpose(G));
        break;
      case OpKind::kSigmoid: {
        if (!req(op.args[0])) break;
        const Tensor& s = Val(f, op.out);
        Tensor da = Tensor::Uninit(G.rows(), G.cols());
        const float* g = G.data();
        const float* sv = s.data();
        float* d = da.data();
        for (size_t i = 0; i < da.size(); ++i) {
          d[i] = g[i] * sv[i] * (1.0f - sv[i]);
        }
        Accum(f, op.args[0], da);
        break;
      }
      case OpKind::kTanh: {
        if (!req(op.args[0])) break;
        const Tensor& t = Val(f, op.out);
        Tensor da = Tensor::Uninit(G.rows(), G.cols());
        const float* g = G.data();
        const float* tv = t.data();
        float* d = da.data();
        for (size_t i = 0; i < da.size(); ++i) {
          d[i] = g[i] * (1.0f - tv[i] * tv[i]);
        }
        Accum(f, op.args[0], da);
        break;
      }
      case OpKind::kRelu: {
        if (!req(op.args[0])) break;
        const Tensor& xv = Val(f, op.args[0]);
        Tensor da = Tensor::Uninit(G.rows(), G.cols());
        const float* g = G.data();
        const float* x = xv.data();
        float* d = da.data();
        for (size_t i = 0; i < da.size(); ++i) {
          d[i] = x[i] > 0.0f ? g[i] : 0.0f;
        }
        Accum(f, op.args[0], da);
        break;
      }
      case OpKind::kLogSigmoid: {
        if (!req(op.args[0])) break;
        const Tensor& xv = Val(f, op.args[0]);
        Tensor da = Tensor::Uninit(G.rows(), G.cols());
        const float* g = G.data();
        const float* x = xv.data();
        float* d = da.data();
        for (size_t i = 0; i < da.size(); ++i) {
          d[i] = g[i] / (1.0f + std::exp(x[i]));
        }
        Accum(f, op.args[0], da);
        break;
      }
      case OpKind::kSoftmaxRows: {
        if (!req(op.args[0])) break;
        const Tensor& s = Val(f, op.out);
        Tensor da = Tensor::Uninit(G.rows(), G.cols());
        for (size_t i = 0; i < G.rows(); ++i) {
          const float* g = G.RowPtr(i);
          const float* sr = s.RowPtr(i);
          float dot = 0.0f;
          for (size_t j = 0; j < G.cols(); ++j) dot += g[j] * sr[j];
          float* d = da.RowPtr(i);
          for (size_t j = 0; j < G.cols(); ++j) d[j] = sr[j] * (g[j] - dot);
        }
        Accum(f, op.args[0], da);
        break;
      }
      case OpKind::kRowwiseDot: {
        auto scatter = [&](int dst, int other) {
          const ValueInfo& dv = plan_.values[dst];
          const Tensor& ov = Val(f, other);
          Tensor d = Tensor::Uninit(dv.rows, dv.cols);
          for (size_t i = 0; i < d.rows(); ++i) {
            const float gi = G.At(i, 0);
            const float* o = ov.RowPtr(i);
            float* dr = d.RowPtr(i);
            for (size_t j = 0; j < d.cols(); ++j) dr[j] = gi * o[j];
          }
          Accum(f, dst, d);
        };
        if (req(op.args[0])) scatter(op.args[0], op.args[1]);
        if (req(op.args[1])) scatter(op.args[1], op.args[0]);
        break;
      }
      case OpKind::kMeanRows: {
        if (!req(op.args[0])) break;
        const ValueInfo& av = plan_.values[op.args[0]];
        const float inv = 1.0f / static_cast<float>(av.rows);
        Tensor da = Tensor::Uninit(av.rows, av.cols);
        const float* g = G.RowPtr(0);
        for (size_t i = 0; i < da.rows(); ++i) {
          float* d = da.RowPtr(i);
          for (size_t j = 0; j < da.cols(); ++j) d[j] = g[j] * inv;
        }
        Accum(f, op.args[0], da);
        break;
      }
      case OpKind::kSumRows: {
        if (!req(op.args[0])) break;
        const ValueInfo& av = plan_.values[op.args[0]];
        Tensor da = Tensor::Uninit(av.rows, av.cols);
        const float* g = G.RowPtr(0);
        for (size_t i = 0; i < da.rows(); ++i) {
          float* d = da.RowPtr(i);
          for (size_t j = 0; j < da.cols(); ++j) d[j] = g[j];
        }
        Accum(f, op.args[0], da);
        break;
      }
      case OpKind::kMeanAll: {
        if (!req(op.args[0])) break;
        const ValueInfo& av = plan_.values[op.args[0]];
        const float inv =
            1.0f / static_cast<float>(av.rows * av.cols);
        Accum(f, op.args[0],
              Tensor::Full(av.rows, av.cols, G.At(0, 0) * inv));
        break;
      }
      case OpKind::kSumAll: {
        if (!req(op.args[0])) break;
        const ValueInfo& av = plan_.values[op.args[0]];
        Accum(f, op.args[0], Tensor::Full(av.rows, av.cols, G.At(0, 0)));
        break;
      }
      case OpKind::kConcatRows: {
        size_t at = 0;
        for (int a : op.args) {
          const ValueInfo& pv = plan_.values[a];
          if (req(a)) {
            Tensor slice = Tensor::Uninit(pv.rows, pv.cols);
            std::memcpy(slice.data(), G.RowPtr(at),
                        slice.size() * sizeof(float));
            Accum(f, a, slice);
          }
          at += pv.rows;
        }
        break;
      }
      case OpKind::kConcatCols: {
        size_t at = 0;
        for (int a : op.args) {
          const ValueInfo& pv = plan_.values[a];
          if (req(a)) {
            Tensor slice = Tensor::Uninit(pv.rows, pv.cols);
            for (size_t r = 0; r < slice.rows(); ++r) {
              std::memcpy(slice.RowPtr(r), G.RowPtr(r) + at,
                          pv.cols * sizeof(float));
            }
            Accum(f, a, slice);
          }
          at += pv.cols;
        }
        break;
      }
      case OpKind::kSliceRows: {
        if (!req(op.args[0])) break;
        const ValueInfo& av = plan_.values[op.args[0]];
        // Zero-initialized: only the sliced rows carry gradient.
        Tensor da(av.rows, av.cols);
        std::memcpy(da.RowPtr(op.start), G.data(), G.size() * sizeof(float));
        Accum(f, op.args[0], da);
        break;
      }
      case OpKind::kGatherRows: {
        const ValueInfo& tv = plan_.values[op.args[0]];
        if (!tv.requires_grad) break;
        // The eager closure's row-sparse scatter, into the same accumulator.
        ScatterAddRows(G, f.i32[op.islot], &tv.leaf->GradAccumulator());
        break;
      }
      case OpKind::kGatherRowsSegmented: {
        const ValueInfo& tv = plan_.values[op.args[0]];
        if (!tv.requires_grad) break;
        const std::vector<size_t>& indptr = f.szs[op.sslot];
        sparse_detail::SegmentedScatterGradInto(
            G, f.i32[op.islot].data(), indptr.data(), indptr.size() - 1,
            &tv.leaf->GradAccumulator());
        break;
      }
      case OpKind::kSegmentSum:
      case OpKind::kSegmentMean: {
        if (!req(op.args[0])) break;
        const ValueInfo& av = plan_.values[op.args[0]];
        const std::vector<size_t>& indptr = f.szs[op.sslot];
        Tensor dx = Tensor::Uninit(av.rows, av.cols);
        if (op.kind == OpKind::kSegmentSum) {
          sparse_detail::SegmentSumGradInto(G, indptr.data(),
                                            indptr.size() - 1, &dx);
        } else {
          sparse_detail::SegmentMeanGradInto(G, indptr.data(),
                                             indptr.size() - 1, &dx);
        }
        Accum(f, op.args[0], dx);
        break;
      }
      case OpKind::kSegmentMax: {
        if (!req(op.args[0])) break;
        const ValueInfo& av = plan_.values[op.args[0]];
        const std::vector<size_t>& indptr = f.szs[op.sslot];
        Tensor dx = Tensor::Uninit(av.rows, av.cols);
        sparse_detail::SegmentMaxGradInto(G, f.amax[op.amax].data(),
                                          indptr.size() - 1, &dx);
        Accum(f, op.args[0], dx);
        break;
      }
      case OpKind::kBceWithLogits: {
        if (!req(op.args[0])) break;
        const Tensor& logits = Val(f, op.args[0]);
        const std::vector<float>& tgt = f.f32[op.fslot];
        const float scale = G.At(0, 0) / static_cast<float>(tgt.size());
        Tensor d = Tensor::Uninit(tgt.size(), 1);
        for (size_t i = 0; i < tgt.size(); ++i) {
          const float x = logits.At(i, 0);
          const float s = 1.0f / (1.0f + std::exp(-x));
          d.At(i, 0) = scale * (s - tgt[i]);
        }
        Accum(f, op.args[0], d);
        break;
      }
      case OpKind::kEwChain: {
        if (!req(op.args[0])) break;
        const Tensor& xv = Val(f, op.args[0]);
        Tensor dx = Tensor::Uninit(G.rows(), G.cols());
        kernels::EwChainBackward(op.stages.data(), op.stages.size(),
                                 xv.data(), G.data(), dx.data(), dx.size());
        Accum(f, op.args[0], dx);
        break;
      }
      default:
        HYBRIDGNN_CHECK(false) << "compiled backward: unsupported op "
                               << ag::OpKindName(op.kind);
    }
  }

  const uint64_t delta =
      pool::MissBytes() + ag::Tape::TotalReservedBytes() - before;
  static obs::Gauge& alloc_gauge =
      obs::GlobalRegistry().GetGauge("plan/replay_alloc_bytes");
  alloc_gauge.Set(static_cast<double>(fwd_alloc_bytes_ + delta));
}

ag::Var CompiledStep::ReplayTrain(const StepInputs& in) {
  HYBRIDGNN_CHECK(ag::Tape::Current() != nullptr)
      << "CompiledStep::ReplayTrain requires an active ag::TapeScope";
  Frame* f = AcquireFrame();
  const uint64_t before = pool::MissBytes() + ag::Tape::TotalReservedBytes();
  Bind(in, f);
  RunForward(*f);
  fwd_alloc_bytes_ =
      pool::MissBytes() + ag::Tape::TotalReservedBytes() - before;
  static obs::Counter& replays =
      obs::GlobalRegistry().GetCounter("plan/replays");
  replays.Add(1);
  Tensor out = f->bufs[plan_.values[plan_.root].buffer];
  if (!plan_.train) {
    ReleaseFrame(f);
    static obs::Gauge& alloc_gauge =
        obs::GlobalRegistry().GetGauge("plan/replay_alloc_bytes");
    alloc_gauge.Set(static_cast<double>(fwd_alloc_bytes_));
    return ag::Constant(std::move(out));
  }
  return ag::MakeOp(std::move(out), std::span<const ag::Var>(params_),
                    FatOpCtx(this, f));
}

Tensor CompiledStep::ReplayInfer(const StepInputs& in) {
  Frame* f = AcquireFrame();
  const uint64_t before = pool::MissBytes() + ag::Tape::TotalReservedBytes();
  Bind(in, f);
  RunForward(*f);
  fwd_alloc_bytes_ =
      pool::MissBytes() + ag::Tape::TotalReservedBytes() - before;
  static obs::Counter& replays =
      obs::GlobalRegistry().GetCounter("plan/replays");
  replays.Add(1);
  static obs::Gauge& alloc_gauge =
      obs::GlobalRegistry().GetGauge("plan/replay_alloc_bytes");
  alloc_gauge.Set(static_cast<double>(fwd_alloc_bytes_));
  Tensor out = f->bufs[plan_.values[plan_.root].buffer];
  ReleaseFrame(f);
  return out;
}

}  // namespace hybridgnn::plan
