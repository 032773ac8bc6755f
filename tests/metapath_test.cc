#include <gtest/gtest.h>

#include "graph/metapath.h"
#include "test_util.h"

namespace hybridgnn {
namespace {

using testing::SmallBipartite;

TEST(MetapathSchemeTest, BasicProperties) {
  MultiplexHeteroGraph g = SmallBipartite();
  MetapathScheme s({0, 1, 0}, {0, 0});
  EXPECT_EQ(s.length(), 2u);
  EXPECT_EQ(s.source_type(), 0);
  EXPECT_EQ(s.target_type(), 0);
  EXPECT_TRUE(s.IsIntraRelationship());
  EXPECT_EQ(s.relation(), 0);
  EXPECT_TRUE(s.Validate(g).ok());
}

TEST(MetapathSchemeTest, InterRelationshipDetected) {
  MetapathScheme s({0, 1, 0}, {0, 1});
  EXPECT_FALSE(s.IsIntraRelationship());
}

TEST(MetapathSchemeTest, ValidateCatchesUnknownIds) {
  MultiplexHeteroGraph g = SmallBipartite();
  MetapathScheme bad_type({0, 9, 0}, {0, 0});
  EXPECT_FALSE(bad_type.Validate(g).ok());
  MetapathScheme bad_rel({0, 1, 0}, {0, 9});
  EXPECT_FALSE(bad_rel.Validate(g).ok());
}

TEST(MetapathSchemeTest, ToStringReadable) {
  MultiplexHeteroGraph g = SmallBipartite();
  MetapathScheme s({0, 1, 0}, {1, 1});
  EXPECT_EQ(s.ToString(g), "user -buy-> item -buy-> user");
}

TEST(MetapathSchemeTest, ParseIntraFullNames) {
  MultiplexHeteroGraph g = SmallBipartite();
  auto s = MetapathScheme::ParseIntra(g, "user-item-user", 0);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->node_types(), (std::vector<NodeTypeId>{0, 1, 0}));
}

TEST(MetapathSchemeTest, ParseIntraSingleLetterShorthand) {
  MultiplexHeteroGraph g = SmallBipartite();
  auto s = MetapathScheme::ParseIntra(g, "U-I-U", 1);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->node_types(), (std::vector<NodeTypeId>{0, 1, 0}));
  EXPECT_EQ(s->relation(), 1);
}

TEST(MetapathSchemeTest, ParseIntraErrors) {
  MultiplexHeteroGraph g = SmallBipartite();
  EXPECT_FALSE(MetapathScheme::ParseIntra(g, "U", 0).ok());       // too short
  EXPECT_FALSE(MetapathScheme::ParseIntra(g, "U-X-U", 0).ok());   // unknown
  EXPECT_FALSE(MetapathScheme::ParseIntra(g, "U-I-U", 9).ok());   // bad rel
}

TEST(MetapathSchemeTest, EqualityOperator) {
  MetapathScheme a({0, 1, 0}, {0, 0});
  MetapathScheme b({0, 1, 0}, {0, 0});
  MetapathScheme c({0, 1, 0}, {1, 1});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(DefaultSchemesTest, GeneratesSymmetricTwoHops) {
  MultiplexHeteroGraph g = SmallBipartite();
  auto schemes = DefaultSchemes(g, 8);
  ASSERT_FALSE(schemes.empty());
  for (const auto& s : schemes) {
    EXPECT_EQ(s.length(), 2u);
    EXPECT_TRUE(s.IsIntraRelationship());
    EXPECT_EQ(s.node_types()[0], s.node_types()[2]);
    EXPECT_TRUE(s.Validate(g).ok());
  }
  // Bipartite: user-item-user and item-user-item per relation -> 4 total.
  EXPECT_EQ(schemes.size(), 4u);
}

TEST(DefaultSchemesTest, RespectsCap) {
  MultiplexHeteroGraph g = SmallBipartite();
  auto schemes = DefaultSchemes(g, 1);
  EXPECT_EQ(schemes.size(), 2u);  // one per relation
}

TEST(MetapathSchemeTest, MatchesBySourceTypeAndRelation) {
  MultiplexHeteroGraph g = SmallBipartite();
  auto schemes = DefaultSchemes(g, 8);
  auto matching = [&](NodeId v, RelationId r) {
    size_t count = 0;
    for (const auto& s : schemes) {
      if (!s.Matches(g, v, r)) continue;
      EXPECT_EQ(s.source_type(), g.node_type(v));
      EXPECT_EQ(s.relation(), r);
      ++count;
    }
    return count;
  };
  EXPECT_EQ(matching(0, 0), 1u);  // user under view
  EXPECT_EQ(matching(4, 1), 1u);  // item under buy
  // An inter-relationship scheme matches no single relation.
  MetapathScheme inter({0, 1, 0}, {0, 1});
  EXPECT_FALSE(inter.Matches(g, 0, 0));
  EXPECT_FALSE(inter.Matches(g, 0, 1));
}

}  // namespace
}  // namespace hybridgnn
