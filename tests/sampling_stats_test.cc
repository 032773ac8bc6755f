// Statistical goodness-of-fit tests for the sampling primitives: Walker's
// alias method (sampling/alias.cc), the heterogeneous negative sampler and
// the skip-gram pair stream (sampling/corpus.cc).
// Each test draws at least one million samples with a fixed seed and runs a
// Pearson chi-squared test against the target distribution; critical values
// are hardcoded at significance alpha = 0.001, so a correct sampler with
// these exact seeds passes deterministically while a biased one (wrong
// alias construction, off-by-one bucket, unnormalized weights) fails by
// many orders of magnitude.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "sampling/alias.h"
#include "sampling/corpus.h"
#include "sampling/negative_sampler.h"
#include "sampling/walker.h"
#include "test_util.h"

namespace hybridgnn {
namespace {

constexpr size_t kDraws = 1u << 20;  // ~1.05e6

/// Pearson chi-squared statistic of observed counts against expected
/// probabilities (which must sum to ~1). Buckets with zero expected mass
/// must have zero observed count — asserted, since a single draw from a
/// zero-weight bucket is a hard sampler bug, not statistical noise.
double ChiSquared(const std::vector<uint64_t>& observed,
                  const std::vector<double>& expected_probs, size_t draws) {
  EXPECT_EQ(observed.size(), expected_probs.size());
  double chi2 = 0.0;
  for (size_t i = 0; i < observed.size(); ++i) {
    const double expected = expected_probs[i] * static_cast<double>(draws);
    if (expected == 0.0) {
      EXPECT_EQ(observed[i], 0u) << "draw from zero-weight bucket " << i;
      continue;
    }
    const double d = static_cast<double>(observed[i]) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

std::vector<double> Normalize(std::vector<double> w) {
  double total = 0.0;
  for (double x : w) total += x;
  for (double& x : w) x /= total;
  return w;
}

// Upper critical values of the chi-squared distribution at alpha = 0.001.
constexpr double kChi2Crit_df2 = 13.816;
constexpr double kChi2Crit_df3 = 16.266;
constexpr double kChi2Crit_df6 = 22.458;
constexpr double kChi2Crit_df9 = 27.877;

TEST(AliasTableStatsTest, UniformWeightsFitUniform) {
  const std::vector<double> weights(10, 3.5);
  AliasTable table(weights);
  Rng rng(1001);
  std::vector<uint64_t> counts(weights.size(), 0);
  for (size_t i = 0; i < kDraws; ++i) ++counts[table.Sample(rng)];
  const double chi2 = ChiSquared(counts, Normalize(weights), kDraws);
  EXPECT_LT(chi2, kChi2Crit_df9) << "uniform alias sampling is biased";
}

TEST(AliasTableStatsTest, SkewedWeightsFitTarget) {
  // Heavy skew plus a zero weight: index 2 must never be drawn, and the
  // remaining mass must match to chi-squared precision.
  const std::vector<double> weights = {100.0, 1.0, 0.0, 25.0, 0.5, 0.5, 3.0};
  AliasTable table(weights);
  Rng rng(1002);
  std::vector<uint64_t> counts(weights.size(), 0);
  for (size_t i = 0; i < kDraws; ++i) ++counts[table.Sample(rng)];
  // df = 7 buckets - 1 zero bucket - 1 = 5; using the df=6 critical value
  // is slightly conservative in the passing direction for a correct
  // sampler and still fails catastrophically for a biased one.
  const double chi2 = ChiSquared(counts, Normalize(weights), kDraws);
  EXPECT_LT(chi2, kChi2Crit_df6) << "skewed alias sampling is biased";
}

TEST(AliasTableStatsTest, PowerLawWeightsFitTarget) {
  // The shape the negative sampler actually feeds in: degree^0.75.
  std::vector<double> weights(10);
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = std::pow(static_cast<double>(i * i % 17) + 1e-3, 0.75);
  }
  AliasTable table(weights);
  Rng rng(1003);
  std::vector<uint64_t> counts(weights.size(), 0);
  for (size_t i = 0; i < kDraws; ++i) ++counts[table.Sample(rng)];
  const double chi2 = ChiSquared(counts, Normalize(weights), kDraws);
  EXPECT_LT(chi2, kChi2Crit_df9) << "power-law alias sampling is biased";
}

TEST(NegativeSamplerStatsTest, PerTypeDistributionMatchesSmoothedDegrees) {
  // SmallBipartite degrees (view + buy): items 4,5,6 have total degree
  // 4,2,2; users 0..3 have 3,2,2,1. The sampler's per-type target is
  // (TotalDegree + 1e-3)^0.75 restricted to the type.
  MultiplexHeteroGraph g = testing::SmallBipartite();
  NegativeSampler sampler(g);
  const NodeTypeId item = g.FindNodeType("item");
  const NodeTypeId user = g.FindNodeType("user");
  ASSERT_NE(item, kInvalidNodeType);
  ASSERT_NE(user, kInvalidNodeType);

  Rng rng(1004);
  {
    const auto& items = g.NodesOfType(item);
    ASSERT_EQ(items.size(), 3u);
    std::vector<double> weights(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      weights[i] =
          std::pow(static_cast<double>(g.TotalDegree(items[i])) + 1e-3, 0.75);
    }
    std::vector<uint64_t> counts(items.size(), 0);
    for (size_t i = 0; i < kDraws; ++i) {
      const NodeId v = sampler.SampleOfType(item, rng);
      ASSERT_EQ(g.node_type(v), item) << "wrong-type sample " << v;
      size_t idx = items.size();
      for (size_t j = 0; j < items.size(); ++j) {
        if (items[j] == v) idx = j;
      }
      ASSERT_LT(idx, items.size());
      ++counts[idx];
    }
    const double chi2 = ChiSquared(counts, Normalize(weights), kDraws);
    EXPECT_LT(chi2, kChi2Crit_df2) << "item negatives are biased";
  }
  {
    const auto& users = g.NodesOfType(user);
    ASSERT_EQ(users.size(), 4u);
    std::vector<double> weights(users.size());
    for (size_t i = 0; i < users.size(); ++i) {
      weights[i] =
          std::pow(static_cast<double>(g.TotalDegree(users[i])) + 1e-3, 0.75);
    }
    std::vector<uint64_t> counts(users.size(), 0);
    for (size_t i = 0; i < kDraws; ++i) {
      const NodeId v = sampler.SampleOfType(user, rng);
      ASSERT_EQ(g.node_type(v), user) << "wrong-type sample " << v;
      ++counts[v];  // users are nodes 0..3
    }
    const double chi2 = ChiSquared(counts, Normalize(weights), kDraws);
    EXPECT_LT(chi2, kChi2Crit_df3) << "user negatives are biased";
  }
}

TEST(NegativeSamplerStatsTest, SampleLikeIsTypePureAndAvoidsSelf) {
  // Regression for the type-compatibility contract: a negative for an item
  // context must be an item, never a user (and vice versa), and must avoid
  // the context node itself except for the documented tiny-type-set
  // fallback after 8 rejection attempts.
  MultiplexHeteroGraph g = testing::SmallBipartite();
  NegativeSampler sampler(g);
  Rng rng(1005);
  constexpr size_t kLikeDraws = 200000;
  for (NodeId like : {NodeId{0}, NodeId{4}}) {
    const NodeTypeId want = g.node_type(like);
    size_t self_hits = 0;
    for (size_t i = 0; i < kLikeDraws; ++i) {
      const NodeId v = sampler.SampleLike(like, rng);
      ASSERT_EQ(g.node_type(v), want)
          << "SampleLike(" << like << ") returned wrong-type node " << v;
      if (v == like) ++self_hits;
    }
    // Collision survives only if 8 retries all hit `like`; even for the
    // heaviest node here (item 4, p ~ 0.457) that is p^9 < 1e-3.
    EXPECT_LT(self_hits, kLikeDraws / 100)
        << "SampleLike returns the excluded node too often";
  }
}

TEST(NegativeSamplerStatsTest, SampleAnyCoversAllNodesByDegreeMass) {
  MultiplexHeteroGraph g = testing::SmallBipartite();
  NegativeSampler sampler(g);
  Rng rng(1006);
  std::vector<double> weights(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    weights[v] =
        std::pow(static_cast<double>(g.TotalDegree(v)) + 1e-3, 0.75);
  }
  std::vector<uint64_t> counts(g.num_nodes(), 0);
  for (size_t i = 0; i < kDraws; ++i) ++counts[sampler.SampleAny(rng)];
  const double chi2 = ChiSquared(counts, Normalize(weights), kDraws);
  EXPECT_LT(chi2, kChi2Crit_df6) << "global negative sampling is biased";
}

// ---------- Skip-gram pair stream ----------
//
// The stream replaces a materialized corpus: num_walks_per_node walks from
// every non-isolated node, their window pairs, and `edge_copies` copies
// of every edge in both directions. The reference below builds that
// corpus (with the walker primitives directly) again and again with one
// running Rng; the stream draws as many passes, each ended by its walk cap
// so no pass is cut mid-walk. A two-sample chi-squared test of homogeneity
// compares their (center, context) histograms.

using WalkFn = std::function<std::vector<NodeId>(NodeId, Rng&)>;

constexpr size_t kPasses = 3000;

std::vector<uint64_t> ReferenceHistogram(const MultiplexHeteroGraph& g,
                                         const CorpusOptions& options,
                                         size_t edge_copies,
                                         const WalkFn& walk, Rng& rng) {
  const size_t n = g.num_nodes();
  std::vector<uint64_t> counts(n * n, 0);
  std::vector<SkipGramPair> pairs;
  for (size_t pass = 0; pass < kPasses; ++pass) {
    pairs.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (g.TotalDegree(v) == 0) continue;
      for (size_t w = 0; w < options.num_walks_per_node; ++w) {
        HarvestPairs(walk(v, rng), options.window, kInvalidRelation, pairs);
      }
    }
    for (size_t c = 0; c < edge_copies; ++c) {
      for (const EdgeTriple& e : g.edges()) {
        pairs.push_back({e.src, e.dst, e.rel});
        pairs.push_back({e.dst, e.src, e.rel});
      }
    }
    for (const SkipGramPair& p : pairs) ++counts[p.center * n + p.context];
  }
  return counts;
}

std::vector<uint64_t> StreamHistogram(const MultiplexHeteroGraph& g,
                                      const PairStream& stream, Rng& rng) {
  const size_t n = g.num_nodes();
  std::vector<uint64_t> counts(n * n, 0);
  for (size_t pass = 0; pass < kPasses; ++pass) {
    PairStream::Reader reader(stream, SIZE_MAX, stream.walks_per_pass(),
                              rng);
    SkipGramPair p;
    while (reader.Next(&p)) ++counts[p.center * n + p.context];
  }
  return counts;
}

/// Upper alpha = 0.001 critical value of chi-squared with `df` degrees of
/// freedom (Wilson-Hilferty; within 1% of the exact value for df >= 10).
double Chi2Critical(size_t df) {
  const double k = static_cast<double>(df);
  const double z = 3.0902;  // standard normal upper 0.001 quantile
  const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * t * t * t;
}

/// Two-sample chi-squared test of homogeneity; fails when the histograms
/// differ at alpha = 0.001.
void ExpectSameDistribution(const std::vector<uint64_t>& a,
                            const std::vector<uint64_t>& b) {
  ASSERT_EQ(a.size(), b.size());
  double na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    na += static_cast<double>(a[i]);
    nb += static_cast<double>(b[i]);
  }
  const double ka = std::sqrt(nb / na), kb = std::sqrt(na / nb);
  double chi2 = 0.0;
  size_t buckets = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] + b[i] == 0) continue;
    const double d = static_cast<double>(a[i]) * ka -
                     static_cast<double>(b[i]) * kb;
    chi2 += d * d / static_cast<double>(a[i] + b[i]);
    ++buckets;
  }
  ASSERT_GE(buckets, 11u);
  EXPECT_LT(chi2, Chi2Critical(buckets - 1))
      << "stream and materialized corpus differ over " << buckets
      << " (center, context) buckets, " << na << " vs " << nb << " pairs";
}

CorpusOptions StatsCorpus() {
  CorpusOptions options;
  options.num_walks_per_node = 3;
  options.walk_length = 4;
  options.window = 2;
  return options;
}

TEST(PairStreamStatsTest, UniformWalksWithEdgeCopiesMatchCorpus) {
  MultiplexHeteroGraph g = testing::SmallBipartite();
  const CorpusOptions options = StatsCorpus();
  Rng ref_rng(1007), stream_rng(1008);
  const auto reference = ReferenceHistogram(
      g, options, /*edge_copies=*/2,
      [&](NodeId v, Rng& rng) {
        return UniformWalk(g, v, options.walk_length, rng);
      },
      ref_rng);
  const PairStream stream = PairStream::Uniform(g, options, 2);
  ExpectSameDistribution(reference, StreamHistogram(g, stream, stream_rng));
}

TEST(PairStreamStatsTest, Node2VecWalksMatchCorpus) {
  MultiplexHeteroGraph g = testing::SmallBipartite();
  const CorpusOptions options = StatsCorpus();
  Rng ref_rng(1009), stream_rng(1010);
  const auto reference = ReferenceHistogram(
      g, options, /*edge_copies=*/0,
      [&](NodeId v, Rng& rng) {
        return Node2VecWalk(g, v, options.walk_length, 0.5, 2.0, rng);
      },
      ref_rng);
  const PairStream stream = PairStream::Node2Vec(g, options, 0.5, 2.0);
  ExpectSameDistribution(reference, StreamHistogram(g, stream, stream_rng));
}

}  // namespace
}  // namespace hybridgnn
