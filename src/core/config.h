#ifndef HYBRIDGNN_CORE_CONFIG_H_
#define HYBRIDGNN_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "sampling/corpus.h"

namespace hybridgnn {

/// Hyper-parameters of HybridGNN, named after the paper's symbols where one
/// exists. The four `use_*` switches implement the Table VII ablations.
struct HybridGnnConfig {
  /// d_m — base embedding width (paper sweeps {64,128,256,512}; best 128).
  size_t base_dim = 128;
  /// d_e — edge (aggregation-flow) embedding width (paper: best 8).
  size_t edge_dim = 8;
  /// d_k — hidden width of both attention levels.
  size_t hidden_dim = 16;
  /// K_rand / L — depth of randomized inter-relationship exploration
  /// (Table V sweeps 1..3; 2 is best on complex graphs).
  size_t exploration_depth = 2;
  /// Neighbors sampled per aggregation level (N_k).
  size_t fanout = 6;
  /// Eq. 3 defines one AGG per metapath scheme. With small training budgets
  /// each per-scheme aggregator sees only a fraction of the gradient signal,
  /// so by default all schemes share one aggregator (the randomized flow
  /// always has its own); set true for the paper's literal parameterization.
  bool per_scheme_aggregators = false;
  /// n — negatives per positive pair (paper sweeps {1,3,5,7}).
  size_t num_negatives = 5;
  /// Fraction of negatives drawn relationship-aware (cross-relation
  /// neighbors of the center) — the P_Neg instantiation for multiplex
  /// recommendation; the rest follow the type-matched unigram^0.75.
  double cross_negative_fraction = 0.5;

  size_t epochs = 10;
  size_t batch_size = 128;
  /// Initialize the base/context tables with a fast manual-SGD skip-gram
  /// pass over relation-blind uniform-walk pairs before end-to-end
  /// training (GATNE's reference implementation pretrains its base
  /// embeddings the same way). The base captures global proximity; the
  /// aggregation machinery then learns relation-specific corrections.
  bool pretrain_base = true;
  /// Keep the pretrained base/context tables frozen during end-to-end
  /// training so the relationship-specific branch is learned as a residual
  /// on a stable global representation.
  bool freeze_pretrained = false;
  /// Cap on the training edges each fine-tuning epoch uses (0 = all);
  /// pretraining does not read it.
  size_t max_pairs_per_epoch = 20000;
  float learning_rate = 1e-2f;
  /// Scale of the aggregation branch in e* = e_v + local_scale * e_{v,r} W_r.
  /// Damps untrained-machinery noise relative to the pretrained base.
  /// Must be finite.
  float local_scale = 0.5f;
  /// Stop when internal-validation ROC-AUC fails to improve this many
  /// consecutive epochs (paper: patience 5); the best epoch's parameters
  /// are restored.
  size_t early_stopping_patience = 8;
  /// Fraction of training edges held out inside Fit for early stopping.
  double internal_val_fraction = 0.10;
  /// Restore the best-validation epoch's parameters after training. Disable
  /// to keep the final epoch (mainly for tests/diagnostics).
  bool restore_best = true;

  /// Pretraining walk-pair stream parameters (paper: 20 walks, length 10,
  /// window 5).
  CorpusOptions corpus;

  // ---- Ablation switches (Table VII) ----
  /// "w/o metapath-level attention": mean of flows + linear projection.
  bool use_metapath_attention = true;
  /// "w/o relationship-level attention": skip Eq. 8-9.
  bool use_relation_attention = true;
  /// "w/o randomized exploration": drop the P_rand flow.
  bool use_randomized_exploration = true;
  /// "w/o hybrid aggregation flow": replace metapath-guided flows with a
  /// single relation-blind random-sampling flow.
  bool use_hybrid_aggregation = true;

  uint64_t seed = 1;

  /// Rejects inconsistent settings (zero dims, both flow sources disabled…).
  Status Validate() const;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_CORE_CONFIG_H_
