#include "stream/live_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace hybridgnn {

StatusOr<std::unique_ptr<LiveEmbeddingStore>> LiveEmbeddingStore::Create(
    const EmbeddingStore& initial, const MultiplexHeteroGraph* graph,
    TopKOptions options) {
  if (initial.num_relations() == 0 || initial.dim() == 0) {
    return Status::InvalidArgument(
        "live store needs a non-empty embedding store to seed from");
  }
  std::unique_ptr<LiveEmbeddingStore> live(new LiveEmbeddingStore());
  live->model_name_ = initial.model_name();
  live->dim_ = initial.dim();
  live->num_nodes_ = initial.num_nodes();
  live->graph_ = graph;
  live->options_ = options;
  live->staging_.resize(initial.num_relations());
  for (RelationId r = 0; r < initial.num_relations(); ++r) {
    StagingTable& t = live->staging_[r];
    t.name = initial.relation_name(r);
    auto rows = initial.RowNodes(r);
    t.row_to_node.assign(rows.begin(), rows.end());
    t.node_to_row.assign(live->num_nodes_, EmbeddingStore::kNoRow);
    for (size_t i = 0; i < t.row_to_node.size(); ++i) {
      t.node_to_row[t.row_to_node[i]] = static_cast<uint32_t>(i);
    }
    auto data = initial.Table(r);
    t.data.assign(data.begin(), data.end());
  }
  HYBRIDGNN_RETURN_IF_ERROR(live->Publish(nullptr));
  return live;
}

float* LiveEmbeddingStore::MutableRow(RelationId r, NodeId v) {
  if (r >= staging_.size()) return nullptr;
  const uint32_t row = RowOf(r, v);
  if (row == EmbeddingStore::kNoRow) return nullptr;
  // Handing out a mutable pointer taints the row for the next publish's
  // norm carry-forward, whether or not the caller ends up writing.
  staging_[r].touched_rows.push_back(row);
  return staging_[r].data.data() + static_cast<size_t>(row) * dim_;
}

const float* LiveEmbeddingStore::Row(RelationId r, NodeId v) const {
  if (r >= staging_.size()) return nullptr;
  const uint32_t row = RowOf(r, v);
  if (row == EmbeddingStore::kNoRow) return nullptr;
  return staging_[r].data.data() + static_cast<size_t>(row) * dim_;
}

StatusOr<LiveEmbeddingStore::EnsureResult> LiveEmbeddingStore::EnsureRow(
    RelationId r, NodeId v) {
  if (r >= staging_.size()) {
    return Status::InvalidArgument("unknown relation id " + std::to_string(r));
  }
  if (v >= num_nodes_) num_nodes_ = static_cast<size_t>(v) + 1;
  StagingTable& t = staging_[r];
  if (v >= t.node_to_row.size()) {
    t.node_to_row.resize(num_nodes_, EmbeddingStore::kNoRow);
  }
  if (t.node_to_row[v] != EmbeddingStore::kNoRow) {
    return EnsureResult{t.node_to_row[v], false};
  }
  const uint32_t row = static_cast<uint32_t>(t.row_to_node.size());
  t.row_to_node.push_back(v);
  t.node_to_row[v] = row;
  t.data.resize(t.data.size() + dim_, 0.0f);
  t.touched_rows.push_back(row);
  return EnsureResult{row, true};
}

Status LiveEmbeddingStore::Publish(const DynamicGraphOverlay* overlay) {
  // Freeze staging into table copies, refilling a retired Version's tables
  // where their shapes match. Reuse is gated on the spare list's mutex, not
  // on a retired Version's use_count(): a relaxed refcount read would not
  // order the readers' last reads before these writes; the mutex does.
  std::vector<Tensor> spare;
  {
    std::lock_guard<std::mutex> lock(spares_->mu);
    spare.swap(spares_->tables);
  }
  std::vector<EmbeddingStore::TableInit> tables;
  tables.reserve(staging_.size());
  for (size_t r = 0; r < staging_.size(); ++r) {
    const StagingTable& t = staging_[r];
    EmbeddingStore::TableInit init;
    init.name = t.name;
    init.row_to_node = t.row_to_node;
    const size_t rows = t.row_to_node.size();
    const bool fits = r < spare.size() && spare[r].rows() == rows &&
                      spare[r].cols() == dim_;
    init.data = fits ? std::move(spare[r]) : Tensor::Uninit(rows, dim_);
    std::memcpy(init.data.data(), t.data.data(),
                t.data.size() * sizeof(float));
    tables.push_back(std::move(init));
  }
  HYBRIDGNN_ASSIGN_OR_RETURN(
      EmbeddingStore store,
      EmbeddingStore::FromTables(model_name_, num_nodes_, std::move(tables)));
  // The deleter runs on whichever thread drops the last reference. It keeps
  // one spare set and frees any other outside the lock.
  std::shared_ptr<Version> version(
      new Version(next_sequence_, std::move(store)),
      [spares = spares_](Version* retired) {
        std::vector<Tensor> tables = std::move(retired->store).ReleaseTables();
        delete retired;
        std::lock_guard<std::mutex> lock(spares->mu);
        if (spares->tables.empty()) spares->tables.swap(tables);
      });
  version->filter = std::make_unique<DeltaEdgeFilter>(staging_.size());
  if (overlay != nullptr) {
    size_t dropped = 0;
    for (const EdgeTriple& e : overlay->delta_edges()) {
      if (!version->filter->AddEdge(e.src, e.dst, e.rel)) ++dropped;
    }
    if (dropped > 0) {
      obs::GlobalRegistry()
          .GetCounter("stream/filter_edges_dropped")
          .Add(static_cast<double>(dropped));
    }
  }
  // Carry the outgoing snapshot's cosine norms and ANN indexes into the new
  // recommender, recomputing / re-linking only the rows the writer touched
  // since the last publish. Holding `prev` (the shared_ptr) keeps the
  // borrowed norms and indexes alive through construction; the first
  // publish has nothing to carry.
  std::shared_ptr<const Version> prev = Acquire();
  std::vector<std::vector<uint32_t>> dirty;
  NormCarryover carryover;
  const NormCarryover* carry_arg = nullptr;
  const bool wants_carry = options_.cosine || options_.ann;
  if (wants_carry && prev != nullptr && prev->recommender != nullptr) {
    dirty.reserve(staging_.size());
    for (StagingTable& t : staging_) {
      std::sort(t.touched_rows.begin(), t.touched_rows.end());
      t.touched_rows.erase(
          std::unique(t.touched_rows.begin(), t.touched_rows.end()),
          t.touched_rows.end());
      dirty.push_back(std::move(t.touched_rows));
      t.touched_rows.clear();
    }
    carryover.prev_norms = &prev->recommender->row_norms();
    carryover.dirty_rows = &dirty;
    carryover.prev_ann = &prev->recommender->ann_indexes();
    carry_arg = &carryover;
  } else {
    for (StagingTable& t : staging_) t.touched_rows.clear();
  }
  version->recommender = std::make_unique<TopKRecommender>(
      &version->store, graph_, options_, version->filter.get(), carry_arg);
  {
    std::lock_guard<std::mutex> lock(mu_);
    front_ = std::move(version);  // old snapshot retires with its last reader
  }
  ++next_sequence_;
  obs::GlobalRegistry().GetCounter("stream/publishes").Add(1);
  obs::GlobalRegistry()
      .GetGauge("stream/store_version")
      .Set(static_cast<double>(next_sequence_ - 1));
  return Status::OK();
}

std::shared_ptr<const LiveEmbeddingStore::Version> LiveEmbeddingStore::Acquire()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return front_;
}

RecommenderSource::Pinned LiveEmbeddingStore::AcquireRecommender() const {
  auto version = Acquire();
  Pinned pinned;
  pinned.recommender = version->recommender.get();
  pinned.version = version->sequence;
  pinned.pin = std::move(version);
  return pinned;
}

std::vector<StatusOr<std::vector<Recommendation>>>
LiveEmbeddingStore::RecommendBatch(std::span<const TopKQuery> queries,
                                   ThreadPool* pool) const {
  auto version = Acquire();
  return version->recommender->RecommendBatch(queries, pool);
}

uint64_t LiveEmbeddingStore::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return front_ == nullptr ? 0 : front_->sequence;
}

RelationId LiveEmbeddingStore::FindRelation(const std::string& name) const {
  for (RelationId r = 0; r < staging_.size(); ++r) {
    if (staging_[r].name == name) return r;
  }
  return kInvalidRelation;
}

}  // namespace hybridgnn
