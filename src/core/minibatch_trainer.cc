#include "core/minibatch_trainer.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>

#include "common/logging.h"
#include "common/threadpool.h"
#include "sampling/sgns.h"
#include "tensor/optimizer.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {

namespace {

// Copies of each edge SGNS pretraining mixes in with its walk pairs.
constexpr size_t kPretrainEdgeCopies = 2;

// Validation passes and cache fills read off the base table.
obs::Counter& FromBaseCounter() {
  static obs::Counter& counter =
      obs::GlobalRegistry().GetCounter("core/cache_from_base");
  return counter;
}

}  // namespace

size_t RelationEmbeddingCache::Row(NodeId v, RelationId r) const {
  HYBRIDGNN_CHECK(filled()) << "Fit() must succeed before an embedding lookup";
  const size_t row = static_cast<size_t>(v) * num_relations_ + r;
  HYBRIDGNN_CHECK(r < num_relations_ && row < table_.rows())
      << "node " << v << " relation " << r << " outside the embedding cache of "
      << table_.rows() / num_relations_ << " nodes x " << num_relations_
      << " relations";
  return row;
}

Tensor RelationEmbeddingCache::Embedding(NodeId v, RelationId r) const {
  return table_.CopyRow(Row(v, r));
}

Tensor RelationEmbeddingCache::EmbeddingsFor(
    std::span<const std::pair<NodeId, RelationId>> queries) const {
  Tensor out(queries.size(), table_.cols());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& [v, r] = queries[i];
    std::memcpy(out.RowPtr(i), table_.RowPtr(Row(v, r)),
                table_.cols() * sizeof(float));
  }
  return out;
}

void MinibatchTrainer::AddCacheSample(const float* src, size_t samples,
                                      size_t cols, float* dst) {
  for (size_t j = 0; j < cols; ++j) {
    dst[j] = samples == 1 ? src[j]
                          : dst[j] + src[j] / static_cast<float>(samples);
  }
}

double MinibatchTrainer::EdgeWins(const float* u, const float* v,
                                  const float* x, const float* x2,
                                  size_t cols) {
  double pos = 0.0, neg = 0.0, neg2 = 0.0;
  for (size_t j = 0; j < cols; ++j) {
    pos += static_cast<double>(u[j]) * v[j];
    neg += static_cast<double>(u[j]) * x[j];
    neg2 += static_cast<double>(u[j]) * x2[j];
  }
  double wins = 0.0;
  for (double ns : {neg, neg2}) {
    wins += pos > ns ? 1.0 : (pos == ns ? 0.5 : 0.0);
  }
  return wins;
}

bool MinibatchTrainer::OutputsZero(const TowerParams& params) {
  for (const ag::Var& w : params.output) {
    const Tensor& t = w->value;
    for (size_t i = 0; i < t.size(); ++i) {
      if (std::bit_cast<uint32_t>(t.data()[i]) != 0) return false;
    }
  }
  return !params.output.empty();
}

double MinibatchTrainer::BaseValidationAuc(const Tensor& base) const {
  FromBaseCounter().Add(1);
  // The tower's rows are base + 0, which differs from the base row at most
  // in the sign of a zero entry: the dot products come out the same.
  double wins = 0.0;
  for (size_t i = 0; i < val_edges_.size(); ++i) {
    const EdgeTriple& e = val_edges_[i];
    wins += EdgeWins(base.RowPtr(e.src), base.RowPtr(e.dst),
                     base.RowPtr(val_negs_[2 * i]),
                     base.RowPtr(val_negs_[2 * i + 1]), base.cols());
  }
  return wins / (2.0 * static_cast<double>(val_edges_.size()));
}

Tensor MinibatchTrainer::BaseCacheTable(const Tensor& base,
                                        size_t num_relations) const {
  FromBaseCounter().Add(1);
  const size_t cols = base.cols();
  Tensor table(base.rows() * num_relations, cols);
  std::vector<float> row(cols), avg(cols);
  for (size_t v = 0; v < base.rows(); ++v) {
    // The tower's row: base + (+0), as its Add gives it (a -0 entry reads
    // +0); then its samples averaged in order, since equal rows do not
    // always average back to the row (subnormals, three samples).
    const float* b = base.RowPtr(v);
    for (size_t j = 0; j < cols; ++j) row[j] = b[j] + 0.0f;
    std::fill(avg.begin(), avg.end(), 0.0f);
    for (size_t s = 0; s < spec_.cache_samples; ++s) {
      AddCacheSample(row.data(), spec_.cache_samples, cols, avg.data());
    }
    for (size_t r = 0; r < num_relations; ++r) {
      std::memcpy(table.RowPtr(v * num_relations + r), avg.data(),
                  cols * sizeof(float));
    }
  }
  return table;
}

MinibatchTrainer::MinibatchTrainer(TrainerSpec spec, const FitOptions& options)
    : spec_(std::move(spec)),
      options_(options),
      threads_(options.threads()),
      // Stages whose parallel schedule is racy drop to serial.
      train_threads_(options.deterministic ? 1 : threads_) {}

Status MinibatchTrainer::Prepare(const MultiplexHeteroGraph& g,
                                 const TowerParams& params, Rng& rng) {
  // Without an edge no walk can start, so there is no skip-gram pair.
  if (g.edges().empty()) {
    return Status::FailedPrecondition(spec_.name +
                                      ": no skip-gram pairs generated");
  }
  options_.Report("corpus", 1, 1);
  neg_sampler_ = std::make_unique<NegativeSampler>(g);

  if (spec_.pretrain_base) {
    // Relation-blind uniform walks plus the direct edges: the base
    // captures global proximity; relation-specific structure is learned on
    // top of it.
    SgnsOptions pre;
    pre.dim = params.base->value.cols();
    pre.negatives = spec_.num_negatives;
    pre.num_threads = train_threads_;
    SgnsEmbedder pretrainer(g.num_nodes(), pre.dim, rng);
    const Status st = pretrainer.Train(
        PairStream::Uniform(g, spec_.corpus, kPretrainEdgeCopies),
        *neg_sampler_, pre, rng);
    if (!st.ok()) return Status(st.code(), spec_.name + ": " + st.message());
    params.base->value = pretrainer.embeddings();
    params.context->value = pretrainer.contexts();
    options_.Report("pretrain", 1, 1);
  }

  // Internal validation holdout, with two fixed negatives per edge for a
  // stable early-stopping signal.
  train_edges_ = g.edges();
  rng.Shuffle(train_edges_);
  const size_t val_count = std::min<size_t>(
      std::max<size_t>(16, static_cast<size_t>(
                               spec_.internal_val_fraction *
                               static_cast<double>(train_edges_.size()))),
      train_edges_.size() / 2);
  val_edges_.assign(train_edges_.begin(), train_edges_.begin() + val_count);
  train_edges_.erase(train_edges_.begin(), train_edges_.begin() + val_count);
  val_negs_.clear();
  for (const auto& e : val_edges_) {
    for (int k = 0; k < 2; ++k) {
      val_negs_.push_back(neg_sampler_->SampleRelationAware(
          e.src, e.dst, e.rel, spec_.cross_negative_fraction, rng));
    }
  }
  return Status::OK();
}

Status MinibatchTrainer::RunEpochs(
    const BatchFn& run_batch, const std::function<double()>& validation_auc,
    const TowerParams& params, Rng& rng) {
  std::vector<ag::Var> trained;
  if (!(spec_.pretrain_base && spec_.freeze_pretrained)) {
    trained = {params.base, params.context};
  }
  trained.insert(trained.end(), params.trainable.begin(),
                 params.trainable.end());
  Adam optimizer(spec_.learning_rate);
  optimizer.AddParameters(trained);
  auto snapshot = [&]() {
    std::vector<Tensor> out;
    out.reserve(trained.size());
    for (const auto& p : trained) out.push_back(p->value);
    return out;
  };

  // Epoch 0 is the pretrained base; restoring the best epoch at the end
  // means fine-tuning can only improve on it.
  double best_val = validation_auc();
  std::vector<Tensor> best_snapshot = snapshot();
  size_t bad_epochs = 0;
  const size_t edge_batch = std::max<size_t>(16, spec_.batch_size / 2);
  std::unique_ptr<ThreadPool> pool;
  if (train_threads_ > 1) pool = std::make_unique<ThreadPool>(train_threads_);
  // Per-worker gradient sinks live across the whole run: slot tensors are
  // zeroed after each reduction instead of destroyed, so steady-state
  // batches reuse them in place.
  std::vector<ag::GradSinkScope::Sink> sinks(train_threads_);
  std::vector<double> shard_loss(train_threads_, 0.0);
  std::vector<size_t> shard_elems(train_threads_, 0);
  static obs::LatencyHistogram& epoch_stage = obs::Stage("core/epoch");
  static obs::Counter& minibatch_counter =
      obs::GlobalRegistry().GetCounter("core/minibatches");
  static obs::Gauge& loss_gauge =
      obs::GlobalRegistry().GetGauge("core/last_epoch_loss");
  static obs::Counter& nonfinite_counter =
      obs::GlobalRegistry().GetCounter("core/nonfinite_loss");
  for (size_t epoch = 0; epoch < spec_.epochs; ++epoch) {
    obs::ScopedTimer epoch_timer(epoch_stage);
    rng.Shuffle(train_edges_);
    const size_t use_edges =
        spec_.max_pairs_per_epoch == 0
            ? train_edges_.size()
            : std::min(train_edges_.size(), spec_.max_pairs_per_epoch);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < use_edges; start += edge_batch) {
      const size_t end = std::min(use_edges, start + edge_batch);
      double batch_loss = 0.0;
      if (pool == nullptr || end - start < 2 * train_threads_) {
        batch_loss = run_batch(start, end, rng).first;
      } else {
        // Data-parallel shards: each worker backprops its slice of the
        // batch under a private gradient sink; the main thread reduces
        // sinks into the shared grads (weighted by element share, since
        // BCE is a mean over elements) before the single Adam step.
        const size_t count = end - start;
        const size_t shards = std::min<size_t>(train_threads_, count);
        Rng bmaster(rng.NextUint64());
        pool->ParallelFor(shards, [&](size_t w) {
          Rng wrng = bmaster.Fork(w);
          ag::GradSinkScope scope(&sinks[w]);
          std::tie(shard_loss[w], shard_elems[w]) =
              run_batch(start + count * w / shards,
                        start + count * (w + 1) / shards, wrng);
        });
        size_t total_elems = 0;
        for (size_t w = 0; w < shards; ++w) total_elems += shard_elems[w];
        for (size_t w = 0; w < shards; ++w) {
          const float weight = static_cast<float>(shard_elems[w]) /
                               static_cast<float>(total_elems);
          for (auto& [node, grad] : sinks[w]) {
            if (node->grad.empty()) {
              node->grad = Tensor(node->value.rows(), node->value.cols());
            }
            node->grad.Axpy(weight, grad);
            grad.Zero();  // keep the slot for the next batch
          }
          batch_loss += shard_loss[w] *
                        (static_cast<double>(shard_elems[w]) /
                         static_cast<double>(total_elems));
        }
      }
      if (!std::isfinite(batch_loss)) {
        nonfinite_counter.Add(1);
        return Status::FailedPrecondition(
            spec_.name + ": non-finite training loss " +
            std::to_string(batch_loss) + " at epoch " + std::to_string(epoch) +
            " batch " + std::to_string(batches));
      }
      optimizer.Step();
      optimizer.ZeroGrad();
      epoch_loss += batch_loss;
      ++batches;
    }
    // A last step that overflowed leaves no loss to catch it.
    for (const ag::Var& p : trained) {
      if (!AllFinite(p->value)) {
        nonfinite_counter.Add(1);
        return Status::FailedPrecondition(
            spec_.name + ": non-finite parameters after epoch " +
            std::to_string(epoch));
      }
    }
    minibatch_counter.Add(batches);
    epoch_loss /= std::max<size_t>(1, batches);
    last_epoch_loss_ = epoch_loss;
    loss_gauge.Set(epoch_loss);
    const double val = validation_auc();
    options_.Report("epoch", epoch + 1, spec_.epochs);
    if (val > best_val + 1e-4) {
      best_val = val;
      best_snapshot = snapshot();
      bad_epochs = 0;
    } else if (++bad_epochs >= spec_.early_stopping_patience) {
      break;
    }
  }
  if (spec_.restore_best) {
    for (size_t i = 0; i < trained.size(); ++i) {
      trained[i]->value = best_snapshot[i];
    }
  }
  return Status::OK();
}

}  // namespace hybridgnn
