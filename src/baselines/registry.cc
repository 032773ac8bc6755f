#include "baselines/registry.h"

#include <cmath>

#include "baselines/deepwalk.h"
#include "baselines/gatne.h"
#include "baselines/gcn.h"
#include "baselines/graphsage.h"
#include "baselines/han.h"
#include "baselines/line.h"
#include "baselines/magnn.h"
#include "baselines/node2vec.h"
#include "baselines/rgcn.h"
#include "common/string_util.h"
#include "core/hybrid_gnn.h"

namespace hybridgnn {

namespace {

size_t ScaleSteps(size_t base, double effort) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(
                                 static_cast<double>(base) * effort)));
}

CorpusOptions MakeCorpus(const ModelBudget& b) {
  CorpusOptions c;
  c.num_walks_per_node = b.num_walks;
  c.walk_length = b.walk_length;
  c.window = b.window;
  return c;
}

}  // namespace

std::vector<std::string> AllModelNames() {
  return {"DeepWalk", "node2vec", "LINE",  "GCN",   "GraphSage",
          "HAN",      "MAGNN",    "R-GCN", "GATNE", "HybridGNN"};
}

StatusOr<std::unique_ptr<EmbeddingModel>> CreateModel(
    const std::string& name, const std::vector<MetapathScheme>& schemes,
    uint64_t seed, const ModelBudget& budget) {
  const CorpusOptions corpus = MakeCorpus(budget);
  if (name == "DeepWalk") {
    DeepWalk::Options o;
    o.corpus = corpus;
    o.sgns.epochs = ScaleSteps(2, budget.effort);
    o.sgns.max_pairs_per_epoch = budget.max_pairs_per_epoch * 10;
    o.seed = seed;
    return std::unique_ptr<EmbeddingModel>(new DeepWalk(o));
  }
  if (name == "node2vec") {
    Node2Vec::Options o;
    o.corpus = corpus;
    o.sgns.epochs = ScaleSteps(2, budget.effort);
    o.sgns.max_pairs_per_epoch = budget.max_pairs_per_epoch * 10;
    o.seed = seed;
    return std::unique_ptr<EmbeddingModel>(new Node2Vec(o));
  }
  if (name == "LINE") {
    Line::Options o;
    o.samples_per_edge = ScaleSteps(40, budget.effort);
    o.seed = seed;
    return std::unique_ptr<EmbeddingModel>(new Line(o));
  }
  if (name == "GCN") {
    Gcn::Options o;
    o.train.steps = ScaleSteps(60, budget.effort);
    o.seed = seed;
    return std::unique_ptr<EmbeddingModel>(new Gcn(o));
  }
  if (name == "GraphSage") {
    GraphSage::Options o;
    o.train.steps = ScaleSteps(80, budget.effort);
    o.seed = seed;
    return std::unique_ptr<EmbeddingModel>(new GraphSage(o));
  }
  if (name == "HAN") {
    Han::Options o;
    o.train.steps = ScaleSteps(80, budget.effort);
    o.seed = seed;
    return std::unique_ptr<EmbeddingModel>(new Han(o, schemes));
  }
  if (name == "MAGNN") {
    Magnn::Options o;
    o.train.steps = ScaleSteps(80, budget.effort);
    o.seed = seed;
    return std::unique_ptr<EmbeddingModel>(new Magnn(o, schemes));
  }
  if (name == "R-GCN") {
    Rgcn::Options o;
    o.train.steps = ScaleSteps(60, budget.effort);
    o.seed = seed;
    return std::unique_ptr<EmbeddingModel>(new Rgcn(o));
  }
  if (name == "GATNE") {
    Gatne::Options o;
    o.corpus = corpus;
    o.epochs = ScaleSteps(10, budget.effort);
    o.max_pairs_per_epoch = budget.max_pairs_per_epoch;
    o.seed = seed;
    return std::unique_ptr<EmbeddingModel>(new Gatne(o, schemes));
  }
  if (name == "HybridGNN") {
    HybridGnnConfig c;
    c.corpus = corpus;
    c.epochs = ScaleSteps(10, budget.effort);
    c.max_pairs_per_epoch = budget.max_pairs_per_epoch;
    c.seed = seed;
    return std::unique_ptr<EmbeddingModel>(new HybridGnn(c, schemes));
  }
  return Status::NotFound("unknown model: " + name + " (known: " +
                          Join(AllModelNames(), ", ") + ")");
}

}  // namespace hybridgnn
