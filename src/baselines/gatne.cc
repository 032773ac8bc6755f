#include "baselines/gatne.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "common/parallel.h"
#include "nn/sparse.h"
#include "obs/metrics.h"
#include "sampling/negative_sampler.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sgns.h"
#include "tensor/init.h"
#include "tensor/optimizer.h"

namespace hybridgnn {

void Gatne::SampleNode(const MultiplexHeteroGraph& g, NodeId v, Rng& rng,
                       MinibatchFrontier* out) const {
  BuildRelationFrontier(g, v, options_.fanout, rng, out);
  // The edge table keys rows as node * R + relation; remap each segment's
  // raw NodeIds in place.
  for (RelationId r = 0; r < num_relations_; ++r) {
    for (size_t i = out->indptr[r]; i < out->indptr[r + 1]; ++i) {
      out->indices[i] = static_cast<int32_t>(
          static_cast<size_t>(out->indices[i]) * num_relations_ + r);
    }
  }
}

ag::Var Gatne::ForwardNodeFrontier(NodeId v,
                                   const MinibatchFrontier& frontier) const {
  // U_v: per-relation aggregated edge embeddings (mean over sampled direct
  // neighbors' edge embeddings under that relation; own embedding when
  // isolated). One frontier with a segment per relation replaces the
  // per-relation gather+mean walk: a single fused gather of the flat index
  // list, then one segment mean straight to the [R, edge] stack.
  ag::Var block = GatherRowsSegmented(edge_embed_->table(), frontier);
  ag::Var u_stack = SegmentMean(block, frontier);  // [R, edge]

  ag::Var hidden = ag::Tanh(attn_proj_->Forward(u_stack));  // [R, hidden]
  ag::Var base_row = base_->ForwardNodes({v});              // [1, base]

  std::vector<ag::Var> out_rows;
  out_rows.reserve(num_relations_);
  for (RelationId r = 0; r < num_relations_; ++r) {
    // a_{v,r} = softmax(w_r^T tanh(W U_v^T)) over relations.
    ag::Var scores = ag::MatMul(hidden, attn_query_[r]);      // [R, 1]
    ag::Var weights = ag::SoftmaxRows(ag::Transpose(scores)); // [1, R]
    ag::Var mixed = ag::MatMul(weights, u_stack);             // [1, edge]
    out_rows.push_back(ag::MatMul(mixed, m_rel_[r]));         // [1, base]
  }
  ag::Var local =
      out_rows.size() == 1 ? out_rows[0] : ag::ConcatRows(out_rows);
  if (options_.local_scale != 1.0f) {
    local = ag::Scale(local, options_.local_scale);
  }
  return ag::AddRowBroadcast(local, base_row);  // [R, base]
}

namespace {

/// Nodes per batched inference forward (validation chunk, embedding cache
/// chunk). Each node holds R rows of base_dim floats per wide intermediate
/// (8 KB at base_dim 128 with four relations), so a chunk's graph stays a
/// few MB and the parallel cache still splits into many chunks.
constexpr size_t kForwardChunk = 512;

}  // namespace

ag::Var Gatne::ForwardFrontiers(
    std::span<const NodeId> nodes,
    std::span<const MinibatchFrontier> frontiers) const {
  const size_t n = nodes.size();
  const size_t num_rel = num_relations_;
  HYBRIDGNN_CHECK(n > 0 && frontiers.size() == n)
      << "ForwardFrontiers of " << n << " nodes and " << frontiers.size()
      << " frontiers";
  // Per-thread scratch, reused across calls; the ops below copy the index
  // and segment arrays they keep into the tape.
  static thread_local MinibatchFrontier all;
  static thread_local std::vector<int32_t> idx;

  // U for every node: one frontier with n * R segments, node-major (node
  // i's relation r is segment i * R + r), gathered and averaged at once.
  all.Clear();
  for (const MinibatchFrontier& f : frontiers) {
    HYBRIDGNN_CHECK(f.num_segments() == num_rel)
        << "frontier with " << f.num_segments() << " segments, expected "
        << num_rel;
    const size_t at = all.indices.size();
    all.indices.insert(all.indices.end(), f.indices.begin(), f.indices.end());
    for (size_t r = 1; r <= num_rel; ++r) {
      all.indptr.push_back(at + f.indptr[r]);
    }
  }
  ag::Var u = SegmentMean(GatherRowsSegmented(edge_embed_->table(), all),
                          all);                               // [n * R, edge]
  ag::Var hidden = ag::Tanh(attn_proj_->Forward(u));          // [n * R, hidden]

  // a_{v,r} = softmax(w_r^T tanh(W U_v^T)) over relations, per node: block
  // i of the logits is [R, R], row r holding w_r against each of node i's R
  // hidden rows. The stacked queries [R, hidden] repeat once per block.
  std::vector<ag::Var> queries;
  queries.reserve(num_rel);
  for (const ag::Var& q : attn_query_) queries.push_back(ag::Transpose(q));
  idx.clear();
  for (size_t i = 0; i < n; ++i) {
    for (size_t r = 0; r < num_rel; ++r) idx.push_back(static_cast<int32_t>(r));
  }
  ag::Var query_rows = ag::GatherRows(
      queries.size() == 1 ? queries[0] : ag::ConcatRows(queries), idx);
  ag::Var weights =
      ag::SoftmaxRows(ag::BatchedMatMulTransB(query_rows, hidden, n));
  ag::Var mixed = ag::BatchedMatMul(weights, u, n);  // [n * R, edge]

  // M_r^T of each mixed row: the rows regrouped relation-major, then one
  // block product against the stacked M_r.
  ag::Var m = m_rel_[0];
  if (num_rel > 1) {
    idx.clear();
    for (size_t r = 0; r < num_rel; ++r) {
      for (size_t i = 0; i < n; ++i) {
        idx.push_back(static_cast<int32_t>(i * num_rel + r));
      }
    }
    mixed = ag::GatherRows(mixed, idx);
    m = ag::ConcatRows(m_rel_);  // [R * edge, base]
  }
  ag::Var local = ag::BatchedMatMul(mixed, m, num_rel);  // [R * n, base]
  if (options_.local_scale != 1.0f) {
    local = ag::Scale(local, options_.local_scale);
  }
  idx.clear();
  for (size_t r = 0; r < num_rel; ++r) {
    for (NodeId v : nodes) idx.push_back(static_cast<int32_t>(v));
  }
  return ag::Add(local, ag::GatherRows(base_->table(), idx));  // [R * n, base]
}

Status Gatne::Fit(const MultiplexHeteroGraph& g, const FitOptions& options) {
  if (!std::isfinite(options_.learning_rate) ||
      options_.learning_rate <= 0.0f) {
    return Status::InvalidArgument(
        "GATNE: learning_rate must be finite and positive");
  }
  if (g.num_nodes() == 0) return Status::InvalidArgument("empty graph");
  for (const auto& s : schemes_) HYBRIDGNN_RETURN_IF_ERROR(s.Validate(g));
  fitted_ = false;  // a Fit that fails below leaves no stale cache in use
  num_relations_ = g.num_relations();
  const size_t threads = options.threads();
  Rng rng(options_.seed);

  base_ =
      std::make_unique<EmbeddingTable>(g.num_nodes(), options_.base_dim, rng);
  context_ =
      std::make_unique<EmbeddingTable>(g.num_nodes(), options_.base_dim, rng);
  edge_embed_ = std::make_unique<EmbeddingTable>(
      g.num_nodes() * num_relations_, options_.edge_dim, rng);
  attn_proj_ =
      std::make_unique<Linear>(options_.edge_dim, options_.attn_hidden, rng);
  attn_query_.clear();
  m_rel_.clear();
  for (RelationId r = 0; r < num_relations_; ++r) {
    Tensor q(options_.attn_hidden, 1);
    XavierUniform(q, rng);
    attn_query_.push_back(ag::Param(std::move(q)));
    // Zero-init output projection (see HybridGNN): the relation-specific
    // branch phases in without swamping the base embedding early on.
    m_rel_.push_back(
        ag::Param(Tensor(options_.edge_dim, options_.base_dim)));
  }

  const bool freeze_tables =
      options_.pretrain_base && options_.freeze_pretrained;
  Adam optimizer(options_.learning_rate);
  if (!freeze_tables) {
    optimizer.AddParameters(base_->parameters());
    optimizer.AddParameters(context_->parameters());
  }
  optimizer.AddParameters(edge_embed_->parameters());
  optimizer.AddParameters(attn_proj_->parameters());
  optimizer.AddParameters(attn_query_);
  optimizer.AddParameters(m_rel_);

  CorpusOptions corpus_opts = options_.corpus;
  corpus_opts.num_threads = threads;
  WalkCorpus corpus = BuildMetapathCorpus(g, schemes_, corpus_opts, rng);
  if (corpus.pairs.empty()) {
    return Status::FailedPrecondition("GATNE: no skip-gram pairs");
  }
  options.Report("corpus", 1, 1);
  NegativeSampler neg_sampler(g);

  if (options_.pretrain_base) {
    CorpusOptions pre_corpus = corpus_opts;
    pre_corpus.direct_edge_copies = 2;
    WalkCorpus uniform = BuildUniformCorpus(g, pre_corpus, rng);
    uniform.pairs.reserve(uniform.pairs.size() +
                          2 * pre_corpus.direct_edge_copies *
                              g.edges().size());
    for (size_t copy = 0; copy < pre_corpus.direct_edge_copies; ++copy) {
      for (const auto& e : g.edges()) {
        uniform.pairs.push_back(SkipGramPair{e.src, e.dst, e.rel});
        uniform.pairs.push_back(SkipGramPair{e.dst, e.src, e.rel});
      }
    }
    SgnsOptions pre;
    pre.dim = options_.base_dim;
    pre.negatives = options_.num_negatives;
    pre.num_threads = options.deterministic ? 1 : threads;
    SgnsEmbedder pretrainer(g.num_nodes(), options_.base_dim, rng);
    pretrainer.Train(uniform.pairs, neg_sampler, pre, rng);
    base_->table()->value = pretrainer.embeddings();
    context_->table()->value = pretrainer.contexts();
    options.Report("pretrain", 1, 1);
  }

  // Fine-tune the relation machinery on the link objective with
  // relationship-aware negatives; internal-validation early stopping with
  // best-epoch restore (same protocol as HybridGNN).
  std::vector<EdgeTriple> train_edges = g.edges();
  rng.Shuffle(train_edges);
  const size_t val_count = std::min<size_t>(
      std::max<size_t>(16, static_cast<size_t>(
                               options_.internal_val_fraction *
                               static_cast<double>(train_edges.size()))),
      train_edges.size() / 2);
  std::vector<EdgeTriple> val_edges(train_edges.begin(),
                                    train_edges.begin() + val_count);
  train_edges.erase(train_edges.begin(), train_edges.begin() + val_count);
  std::vector<NodeId> val_negs;  // two fixed negatives per val edge
  std::vector<NodeId> val_negs2;
  for (const auto& e : val_edges) {
    val_negs.push_back(neg_sampler.SampleRelationAware(
        e.src, e.dst, e.rel, options_.cross_negative_fraction, rng));
    val_negs2.push_back(neg_sampler.SampleRelationAware(
        e.src, e.dst, e.rel, options_.cross_negative_fraction, rng));
  }

  std::vector<ag::Var> all_params;
  all_params.push_back(base_->table());
  all_params.push_back(context_->table());
  all_params.push_back(edge_embed_->table());
  for (const auto& p : attn_proj_->parameters()) all_params.push_back(p);
  for (const auto& p : attn_query_) all_params.push_back(p);
  for (const auto& p : m_rel_) all_params.push_back(p);
  auto snapshot = [&]() {
    std::vector<Tensor> out;
    for (const auto& p : all_params) out.push_back(p->value);
    return out;
  };
  auto restore = [&](const std::vector<Tensor>& snap) {
    for (size_t i = 0; i < all_params.size(); ++i) {
      all_params[i]->value = snap[i];
    }
  };
  std::vector<NodeId> val_nodes;
  std::vector<MinibatchFrontier> val_frontiers;
  auto validation_auc = [&]() {
    Rng val_rng(options_.seed ^ 0x7A11);
    double wins = 0.0;
    // Four nodes per edge (src, dst, two negatives), sampled in edge order,
    // then one batched forward per kForwardChunk nodes.
    const size_t edges_per_chunk = kForwardChunk / 4;
    for (size_t lo = 0; lo < val_edges.size(); lo += edges_per_chunk) {
      const size_t hi = std::min(val_edges.size(), lo + edges_per_chunk);
      val_nodes.clear();
      val_frontiers.resize(4 * (hi - lo));
      for (size_t i = lo; i < hi; ++i) {
        const EdgeTriple& e = val_edges[i];
        for (NodeId v : {e.src, e.dst, val_negs[i], val_negs2[i]}) {
          SampleNode(g, v, val_rng, &val_frontiers[val_nodes.size()]);
          val_nodes.push_back(v);
        }
      }
      // Scoring-only graph, rewound before the next chunk.
      ag::TapeScope tape;
      ag::Var all = ForwardFrontiers(val_nodes, val_frontiers);
      const size_t n = val_nodes.size();
      for (size_t i = lo; i < hi; ++i) {
        const EdgeTriple& e = val_edges[i];
        const size_t at = e.rel * n + 4 * (i - lo);
        const float* u_row = all->value.RowPtr(at);
        const float* v_row = all->value.RowPtr(at + 1);
        const float* x_row = all->value.RowPtr(at + 2);
        const float* x2_row = all->value.RowPtr(at + 3);
        double pos = 0.0, neg = 0.0, neg2 = 0.0;
        for (size_t j = 0; j < options_.base_dim; ++j) {
          pos += static_cast<double>(u_row[j]) * v_row[j];
          neg += static_cast<double>(u_row[j]) * x_row[j];
          neg2 += static_cast<double>(u_row[j]) * x2_row[j];
        }
        for (double ns : {neg, neg2}) {
          if (pos > ns) {
            wins += 1.0;
          } else if (pos == ns) {
            wins += 0.5;
          }
        }
      }
    }
    return wins / (2.0 * static_cast<double>(val_edges.size()));
  };

  std::vector<size_t> order(train_edges.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  double best_val = validation_auc();
  std::vector<Tensor> best_snapshot = snapshot();
  size_t bad_epochs = 0;
  const size_t edge_batch = std::max<size_t>(16, options_.batch_size / 2);
  static obs::Counter& nonfinite_counter =
      obs::GlobalRegistry().GetCounter("core/nonfinite_loss");

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    const size_t use = options_.max_pairs_per_epoch == 0
                           ? order.size()
                           : std::min(order.size(),
                                      options_.max_pairs_per_epoch);
    size_t batch = 0;
    for (size_t start = 0; start < use; start += edge_batch, ++batch) {
      const size_t end = std::min(use, start + edge_batch);
      // Tape before Vars; thread-local scratch reused across batches (see
      // HybridGnn::Fit for the pattern, including the sample/build split).
      ag::TapeScope tape;
      struct BatchRow {
        int lhs;
        int rhs;
        RelationId rel;
        float label;
      };
      static thread_local std::vector<NodeId> node_ids;
      static thread_local std::vector<MinibatchFrontier> frontiers;
      static thread_local std::vector<BatchRow> brows;
      static thread_local std::vector<float> labels;
      static thread_local std::vector<int32_t> lhs, rhs;
      node_ids.clear();
      brows.clear();
      labels.clear();
      lhs.clear();
      rhs.clear();
      // Phase 1 — sample, drawing neighbors at each node's first reference
      // and negatives in between, in the node-at-a-time loop's RNG order.
      // Frontier slots beyond the batch's node count keep their buffers.
      auto node_ord = [&](NodeId v) -> int {
        for (size_t i = 0; i < node_ids.size(); ++i) {
          if (node_ids[i] == v) return static_cast<int>(i);
        }
        node_ids.push_back(v);
        if (frontiers.size() < node_ids.size()) frontiers.emplace_back();
        SampleNode(g, v, rng, &frontiers[node_ids.size() - 1]);
        return static_cast<int>(node_ids.size()) - 1;
      };
      for (size_t i = start; i < end; ++i) {
        const EdgeTriple& e = train_edges[order[i]];
        const int src_ord = node_ord(e.src);
        const int dst_ord = node_ord(e.dst);
        brows.push_back(BatchRow{src_ord, dst_ord, e.rel, 1.0f});
        for (size_t n = 0; n < options_.num_negatives; ++n) {
          NodeId x = neg_sampler.SampleRelationAware(
              e.src, e.dst, e.rel, options_.cross_negative_fraction, rng);
          brows.push_back(BatchRow{src_ord, node_ord(x), e.rel, 0.0f});
        }
      }

      // Phase 2 — one batched tower over the batch's distinct nodes; each
      // loss row gathers its two endpoints' relation rows out of it.
      const size_t n = node_ids.size();
      for (const BatchRow& row : brows) {
        labels.push_back(row.label);
        lhs.push_back(static_cast<int32_t>(row.rel * n + row.lhs));
        rhs.push_back(static_cast<int32_t>(row.rel * n + row.rhs));
      }
      ag::Var all = ForwardFrontiers(
          node_ids, std::span<const MinibatchFrontier>(frontiers.data(), n));
      ag::Var loss = ag::BceWithLogits(
          ag::RowwiseDot(ag::GatherRows(all, lhs), ag::GatherRows(all, rhs)),
          labels);
      const double batch_loss = loss->value.At(0, 0);
      if (!std::isfinite(batch_loss)) {
        nonfinite_counter.Add(1);
        return Status::FailedPrecondition(
            "GATNE: non-finite training loss " + std::to_string(batch_loss) +
            " at epoch " + std::to_string(epoch) + " batch " +
            std::to_string(batch));
      }
      ag::Backward(loss);
      optimizer.Step();
      optimizer.ZeroGrad();
    }
    const double val = validation_auc();
    options.Report("epoch", epoch + 1, options_.epochs);
    if (val > best_val + 1e-4) {
      best_val = val;
      best_snapshot = snapshot();
      bad_epochs = 0;
    } else if (++bad_epochs >= options_.early_stopping_patience) {
      break;
    }
  }
  if (options_.restore_best) restore(best_snapshot);

  // Cache e_{v,r} for every node, one batched forward per chunk of nodes.
  // Serial: one stream in node order. Parallel: a forked stream per node,
  // so the cache is reproducible and invariant to the thread count.
  cache_ = Tensor(g.num_nodes() * num_relations_, options_.base_dim);
  const Rng cache_master(options_.seed ^ 0xDEFACE);
  Rng cache_rng(options_.seed ^ 0xDEFACE);
  auto cache_chunk = [&](size_t c, bool forked) {
    const size_t lo = c * kForwardChunk;
    const size_t hi = std::min<size_t>(g.num_nodes(), lo + kForwardChunk);
    static thread_local std::vector<NodeId> nodes;
    static thread_local std::vector<MinibatchFrontier> chunk_frontiers;
    nodes.clear();
    chunk_frontiers.resize(hi - lo);
    for (size_t v = lo; v < hi; ++v) {
      Rng node_rng = forked ? cache_master.Fork(v) : Rng(0);
      SampleNode(g, static_cast<NodeId>(v), forked ? node_rng : cache_rng,
                 &chunk_frontiers[v - lo]);
      nodes.push_back(static_cast<NodeId>(v));
    }
    ag::TapeScope tape;  // inference-only graph, rewound per chunk
    ag::Var all = ForwardFrontiers(nodes, chunk_frontiers);
    const size_t n = nodes.size();
    for (size_t v = lo; v < hi; ++v) {
      for (RelationId r = 0; r < num_relations_; ++r) {
        const float* src = all->value.RowPtr(r * n + (v - lo));
        std::copy(src, src + options_.base_dim,
                  cache_.RowPtr(v * num_relations_ + r));
      }
    }
  };
  const size_t num_chunks =
      (g.num_nodes() + kForwardChunk - 1) / kForwardChunk;
  if (threads > 1) {
    RunParallel(threads, num_chunks,
                [&](size_t c) { cache_chunk(c, /*forked=*/true); });
  } else {
    for (size_t c = 0; c < num_chunks; ++c) cache_chunk(c, false);
  }
  options.Report("cache", 1, 1);
  fitted_ = true;
  return Status::OK();
}

Tensor Gatne::Embedding(NodeId v, RelationId r) const {
  HYBRIDGNN_CHECK(fitted_ && r < num_relations_);
  return cache_.CopyRow(v * num_relations_ + r);
}

Tensor Gatne::EmbeddingsFor(
    std::span<const std::pair<NodeId, RelationId>> queries) const {
  HYBRIDGNN_CHECK(fitted_);
  Tensor out(queries.size(), options_.base_dim);
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& [v, r] = queries[i];
    HYBRIDGNN_CHECK(r < num_relations_);
    std::memcpy(out.RowPtr(i), cache_.RowPtr(v * num_relations_ + r),
                options_.base_dim * sizeof(float));
  }
  return out;
}

}  // namespace hybridgnn
