#include "baselines/common.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {

namespace {

// A non-edge (src, x, rel) with x of the same type as `pos.dst`.
EdgeTriple SampleNegativeEdge(const MultiplexHeteroGraph& g,
                              const EdgeTriple& pos, Rng& rng) {
  const auto& candidates = g.NodesOfType(g.node_type(pos.dst));
  for (int attempt = 0; attempt < 32; ++attempt) {
    NodeId x = candidates[rng.UniformUint64(candidates.size())];
    if (x == pos.src || x == pos.dst) continue;
    if (g.HasEdge(pos.src, x, pos.rel)) continue;
    return EdgeTriple{pos.src, x, pos.rel};
  }
  // Dense fallback: accept a random candidate.
  return EdgeTriple{pos.src,
                    candidates[rng.UniformUint64(candidates.size())],
                    pos.rel};
}

obs::Counter& NonfiniteCounter() {
  static obs::Counter& counter =
      obs::GlobalRegistry().GetCounter("core/nonfinite_loss");
  return counter;
}

}  // namespace

const float* NodeTableModel::Row(NodeId v) const {
  HYBRIDGNN_CHECK(v < table_.rows())
      << name() << ": node " << v << " outside the fitted table of "
      << table_.rows() << " nodes";
  return table_.RowPtr(v);
}

Tensor NodeTableModel::Embedding(NodeId v, RelationId r) const {
  const std::pair<NodeId, RelationId> query[] = {{v, r}};
  return EmbeddingsFor(query);
}

Tensor NodeTableModel::EmbeddingsFor(
    std::span<const std::pair<NodeId, RelationId>> queries) const {
  Tensor out(queries.size(), table_.cols());
  for (size_t i = 0; i < queries.size(); ++i) {
    std::memcpy(out.RowPtr(i), Row(queries[i].first),
                table_.cols() * sizeof(float));
  }
  return out;
}

Status NodeTableModel::SetTable(const std::string& name, Tensor table) {
  if (!AllFinite(table)) {
    NonfiniteCounter().Add(1);
    return Status::FailedPrecondition(
        name + ": embeddings are not finite after training");
  }
  table_ = std::move(table);
  return Status::OK();
}

Status TrainLink(const std::string& name, const MultiplexHeteroGraph& g,
                 const LinkTrainOptions& options, Adam& optimizer, Rng& rng,
                 const LinkHooks& hooks) {
  if (!std::isfinite(options.learning_rate) || options.learning_rate <= 0.0f) {
    return Status::InvalidArgument(name + ": learning rate " +
                                   std::to_string(options.learning_rate) +
                                   " is not a positive finite number");
  }
  const auto& edges = g.edges();
  if (edges.empty()) return Status::FailedPrecondition(name + ": no edges");
  std::vector<EdgeTriple> batch;
  std::vector<float> labels(2 * options.batch_edges, 0.0f);
  for (size_t i = 0; i < labels.size(); i += 2) labels[i] = 1.0f;
  for (size_t step = 0; step < options.steps; ++step) {
    hooks.begin();
    batch.clear();
    for (size_t b = 0; b < options.batch_edges; ++b) {
      const EdgeTriple& pos = edges[rng.UniformUint64(edges.size())];
      hooks.visit(pos.src);
      hooks.visit(pos.dst);
      const EdgeTriple neg = SampleNegativeEdge(g, pos, rng);
      hooks.visit(neg.src);
      hooks.visit(neg.dst);
      batch.push_back(pos);
      batch.push_back(neg);
    }
    ag::Var loss = ag::BceWithLogits(hooks.logits(batch), labels);
    const float value = loss->value.At(0, 0);
    if (!std::isfinite(value)) {
      NonfiniteCounter().Add(1);
      return Status::FailedPrecondition(
          name + ": non-finite training loss " + std::to_string(value) +
          " at step " + std::to_string(step));
    }
    ag::Backward(loss);
    optimizer.Step();
    optimizer.ZeroGrad();
  }
  return Status::OK();
}

LinkHooks MemoizedDotHooks(std::function<ag::Var(NodeId)> embed) {
  auto memo = std::make_shared<std::unordered_map<NodeId, ag::Var>>();
  return LinkHooks{
      .begin = [memo] { memo->clear(); },
      .visit =
          [memo, embed = std::move(embed)](NodeId v) {
            if (!memo->contains(v)) memo->emplace(v, embed(v));
          },
      .logits =
          [memo](std::span<const EdgeTriple> batch) {
            std::vector<ag::Var> hu, hv;
            for (const EdgeTriple& e : batch) {
              hu.push_back(memo->at(e.src));
              hv.push_back(memo->at(e.dst));
            }
            return ag::RowwiseDot(ag::ConcatRows(hu), ag::ConcatRows(hv));
          }};
}

Tensor TableOf(size_t num_nodes, size_t dim,
               const std::function<ag::Var(NodeId)>& embed) {
  Tensor table(num_nodes, dim);
  for (NodeId v = 0; v < num_nodes; ++v) {
    // Hold the Var while copying: its value dies with it.
    const ag::Var e = embed(v);
    std::copy_n(e->value.RowPtr(0), dim, table.RowPtr(v));
  }
  return table;
}

}  // namespace hybridgnn
