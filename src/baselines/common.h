#ifndef HYBRIDGNN_BASELINES_COMMON_H_
#define HYBRIDGNN_BASELINES_COMMON_H_

#include <functional>
#include <span>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/status.h"
#include "eval/embedding_model.h"
#include "graph/graph.h"
#include "tensor/autograd.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace hybridgnn {

/// Base of the relation-blind baselines: one [V, d] table answers every
/// relation. Lookups range-check the node and die on one outside the table,
/// including every lookup before a successful Fit.
class NodeTableModel : public EmbeddingModel {
 public:
  Tensor Embedding(NodeId v, RelationId r) const override;
  Tensor EmbeddingsFor(std::span<const std::pair<NodeId, RelationId>> queries)
      const override;

 protected:
  /// Row v of the fitted table; dies when v is outside it.
  const float* Row(NodeId v) const;

  /// Installs the fitted table, or fails with FailedPrecondition ("<name>:
  /// ...") and bumps core/nonfinite_loss when it is not finite.
  Status SetTable(const std::string& name, Tensor table);

 private:
  Tensor table_;
};

/// The link-prediction schedule of the full-batch baselines.
struct LinkTrainOptions {
  size_t steps = 80;
  /// Positive edges per step; each is paired with one sampled negative.
  size_t batch_edges = 128;
  float learning_rate = 0.01f;
};

/// What a model plugs into TrainLink.
struct LinkHooks {
  /// Runs once at the start of every step, before any draw.
  std::function<void()> begin;
  /// Runs on every endpoint in draw order: each positive's src and dst,
  /// then its negative's src and dst.
  std::function<void(NodeId)> visit;
  /// Logits of the step's batch: positive edge i at row 2i, its negative
  /// at row 2i + 1.
  std::function<ag::Var(std::span<const EdgeTriple>)> logits;
};

/// The BCE link-prediction loop every full-batch baseline trains with:
/// `steps` times, draw `batch_edges` training edges, each followed by a
/// non-edge of the same relation and destination type, then take one
/// `optimizer` step on BCE(logits, 1/0 labels). Fails with InvalidArgument
/// on a non-finite or non-positive learning rate, and with
/// FailedPrecondition on an edgeless graph or a non-finite step loss (which
/// also bumps core/nonfinite_loss). Messages start with "<name>: ". Runs
/// serially: the models it drives ignore FitOptions' thread settings.
Status TrainLink(const std::string& name, const MultiplexHeteroGraph& g,
                 const LinkTrainOptions& options, Adam& optimizer, Rng& rng,
                 const LinkHooks& hooks);

/// Hooks for per-node towers: every distinct endpoint of a step is
/// embedded once by `embed`, in draw order, and a pair scores as the dot
/// of its endpoint rows.
LinkHooks MemoizedDotHooks(std::function<ag::Var(NodeId)> embed);

/// The [num_nodes, dim] table whose row v is embed(v), filled in node
/// order.
Tensor TableOf(size_t num_nodes, size_t dim,
               const std::function<ag::Var(NodeId)>& embed);

}  // namespace hybridgnn

#endif  // HYBRIDGNN_BASELINES_COMMON_H_
