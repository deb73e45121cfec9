// Tests for the future-work extensions: weight-based explanations (§7),
// group/category-granularity Why-Not questions (§4) and the overlay weight
// override they build on.

#include <gtest/gtest.h>

#include "explain/group.h"
#include "explain/tester.h"
#include "explain/weighted.h"
#include "graph/overlay.h"
#include "ppr/power_iteration.h"
#include "recsys/recommender.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::explain {
namespace {

using graph::NodeId;

// ---------------------------------------------------------------------------
// GraphOverlay::SetWeight
// ---------------------------------------------------------------------------

TEST(OverlaySetWeightTest, OverridesBaseEdgeWeight) {
  test::BookGraph bg = test::MakeBookGraph();
  graph::GraphOverlay o(bg.g);
  ASSERT_TRUE(o.SetWeight(bg.paul, bg.candide, bg.rated, 5.0).ok());
  EXPECT_TRUE(o.HasEdge(bg.paul, bg.candide, bg.rated));
  EXPECT_EQ(o.OutDegree(bg.paul), bg.g.OutDegree(bg.paul));
  EXPECT_DOUBLE_EQ(o.OutWeight(bg.paul), bg.g.OutWeight(bg.paul) + 4.0);
  // The base graph is untouched.
  EXPECT_DOUBLE_EQ(bg.g.EdgeWeight(bg.paul, bg.candide, bg.rated), 1.0);

  double seen = 0.0;
  o.ForEachOutEdge(bg.paul, [&](NodeId dst, graph::EdgeTypeId t, double w) {
    if (dst == bg.candide && t == bg.rated) seen = w;
  });
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(OverlaySetWeightTest, SecondOverrideReplacesFirst) {
  test::BookGraph bg = test::MakeBookGraph();
  graph::GraphOverlay o(bg.g);
  ASSERT_TRUE(o.SetWeight(bg.paul, bg.candide, bg.rated, 5.0).ok());
  ASSERT_TRUE(o.SetWeight(bg.paul, bg.candide, bg.rated, 0.5).ok());
  EXPECT_DOUBLE_EQ(o.OutWeight(bg.paul), bg.g.OutWeight(bg.paul) - 0.5);
  size_t count = 0;
  o.ForEachOutEdge(bg.paul, [&](NodeId dst, graph::EdgeTypeId t, double w) {
    if (dst == bg.candide && t == bg.rated) {
      ++count;
      EXPECT_DOUBLE_EQ(w, 0.5);
    }
  });
  EXPECT_EQ(count, 1u);
}

TEST(OverlaySetWeightTest, WorksOnOverlayAddedEdges) {
  test::BookGraph bg = test::MakeBookGraph();
  graph::GraphOverlay o(bg.g);
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
  ASSERT_TRUE(o.SetWeight(bg.paul, bg.lotr, bg.rated, 3.0).ok());
  EXPECT_DOUBLE_EQ(o.OutWeight(bg.paul), bg.g.OutWeight(bg.paul) + 3.0);
}

TEST(OverlaySetWeightTest, RejectsMissingOrInvalid) {
  test::BookGraph bg = test::MakeBookGraph();
  graph::GraphOverlay o(bg.g);
  EXPECT_TRUE(o.SetWeight(bg.paul, bg.lotr, bg.rated, 2.0).IsNotFound());
  EXPECT_TRUE(
      o.SetWeight(bg.paul, bg.candide, bg.rated, 0.0).IsInvalidArgument());
  EXPECT_TRUE(o.SetWeight(bg.paul, 999, bg.rated, 1.0).IsInvalidArgument());
  // Removed edges cannot be re-weighted.
  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  EXPECT_TRUE(o.SetWeight(bg.paul, bg.candide, bg.rated, 2.0).IsNotFound());
}

TEST(OverlaySetWeightTest, RemoveAfterOverrideDeletesEdge) {
  test::BookGraph bg = test::MakeBookGraph();
  graph::GraphOverlay o(bg.g);
  ASSERT_TRUE(o.SetWeight(bg.paul, bg.candide, bg.rated, 5.0).ok());
  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  EXPECT_FALSE(o.HasEdge(bg.paul, bg.candide, bg.rated));
  EXPECT_DOUBLE_EQ(o.OutWeight(bg.paul), bg.g.OutWeight(bg.paul) - 1.0);
}

TEST(OverlaySetWeightTest, PprSeesOverriddenTransition) {
  test::BookGraph bg = test::MakeBookGraph();
  graph::GraphOverlay o(bg.g);
  ppr::PprOptions popts;
  std::vector<double> before = ppr::PowerIterationPpr(o, bg.paul, popts);
  ASSERT_TRUE(o.SetWeight(bg.paul, bg.candide, bg.rated, 10.0).ok());
  std::vector<double> after = ppr::PowerIterationPpr(o, bg.paul, popts);
  EXPECT_GT(after[bg.candide], before[bg.candide]);
  double sum = 0.0;
  for (double x : after) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-8);
}

// ---------------------------------------------------------------------------
// Weight-based explanations
// ---------------------------------------------------------------------------

TEST(WeightedExplanationTest, SolvesTheRemoveFriendlyCaseByReweighting) {
  // Where removing (Paul, D) works, down-weighting it should too.
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  Result<WeightedExplanation> r = RunWeightedIncremental(
      f.g, WhyNotQuestion{f.user, f.wni}, f.opts, WeightedOptions{});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->found) << FailureReasonName(r->failure);
  EXPECT_EQ(r->new_rec, f.wni);
  ASSERT_FALSE(r->adjustments.empty());

  // Verify through an overlay; also check weights stay within bounds.
  graph::GraphOverlay o(f.g);
  for (const WeightAdjustment& adj : r->adjustments) {
    EXPECT_GE(adj.new_weight, WeightedOptions{}.min_weight);
    EXPECT_LE(adj.new_weight, WeightedOptions{}.max_weight);
    EXPECT_NE(adj.new_weight, adj.old_weight);
    ASSERT_TRUE(o.SetWeight(adj.edge.src, adj.edge.dst, adj.edge.type,
                            adj.new_weight)
                    .ok());
  }
  EXPECT_EQ(recsys::Recommend(o, f.user, f.opts.rec), f.wni);
}

TEST(WeightedExplanationTest, AdjustsOnlyExistingUserEdges) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  Result<WeightedExplanation> r = RunWeightedIncremental(
      f.g, WhyNotQuestion{f.user, f.wni}, f.opts, WeightedOptions{});
  ASSERT_TRUE(r.ok());
  for (const WeightAdjustment& adj : r->adjustments) {
    EXPECT_EQ(adj.edge.src, f.user);
    EXPECT_TRUE(f.g.HasEdge(adj.edge.src, adj.edge.dst, adj.edge.type));
    EXPECT_DOUBLE_EQ(
        adj.old_weight,
        f.g.EdgeWeight(adj.edge.src, adj.edge.dst, adj.edge.type));
  }
}

TEST(WeightedExplanationTest, ColdStartAndValidation) {
  test::BookGraph bg = test::MakeBookGraph();
  EmigreOptions opts = test::MakeBookOptions(bg);
  NodeId newbie = bg.g.AddNode(bg.user_type, "Newbie");
  Result<WeightedExplanation> r = RunWeightedIncremental(
      bg.g, WhyNotQuestion{newbie, bg.lotr}, opts, WeightedOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
  EXPECT_EQ(r->failure, FailureReason::kColdStart);

  WeightedOptions bad;
  bad.min_weight = 2.0;
  bad.max_weight = 1.0;
  EXPECT_TRUE(RunWeightedIncremental(bg.g, WhyNotQuestion{bg.paul, bg.lotr},
                                     opts, bad)
                  .status()
                  .IsInvalidArgument());
}

TEST(WeightedExplanationTest, RelaxationKeepsExplanationCorrect) {
  Rng rng(1234);
  for (int trial = 0; trial < 6; ++trial) {
    test::RandomHin rh = test::MakeRandomHin(rng, 5, 16, 3, 5);
    EmigreOptions opts = test::MakeRandomHinOptions(rh);
    NodeId user = rh.users[0];
    recsys::RecommendationList ranking =
        recsys::RankItems(rh.g, user, opts.rec);
    if (ranking.size() < 2) continue;
    NodeId wni = ranking.at(1).item;
    Result<WeightedExplanation> r = RunWeightedIncremental(
        rh.g, WhyNotQuestion{user, wni}, opts, WeightedOptions{});
    ASSERT_TRUE(r.ok());
    if (!r->found) continue;
    graph::GraphOverlay o(rh.g);
    for (const WeightAdjustment& adj : r->adjustments) {
      ASSERT_TRUE(o.SetWeight(adj.edge.src, adj.edge.dst, adj.edge.type,
                              adj.new_weight)
                      .ok());
    }
    EXPECT_EQ(recsys::Recommend(o, user, opts.rec), wni);
  }
}

// ---------------------------------------------------------------------------
// Group / category Why-Not questions
// ---------------------------------------------------------------------------

TEST(GroupExplanationTest, PromotesSomeMember) {
  test::ScenarioFixture f = test::MakeAddFriendlyCase();
  Emigre engine(f.g, f.opts);
  // Group = the WNI plus an unreachable sibling.
  WhyNotGroupQuestion q;
  q.user = f.user;
  q.items = {f.wni};
  for (NodeId n = 0; n < f.g.NumNodes(); ++n) {
    if (f.g.NodeType(n) == f.opts.rec.item_type && n != f.wni) {
      q.items.push_back(n);
    }
  }
  Result<GroupExplanation> r =
      ExplainGroup(engine, q, Mode::kAdd, Heuristic::kIncremental);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->found);
  EXPECT_NE(r->promoted_item, graph::kInvalidNode);
  EXPECT_TRUE(r->explanation.found);
  EXPECT_EQ(r->explanation.new_rec, r->promoted_item);
  // The current rec was in the group: it is reported skipped, not promoted.
  recsys::RecommendationList ranking = engine.CurrentRanking(f.user);
  bool rec_skipped = false;
  for (NodeId s : r->skipped) rec_skipped |= (s == ranking.Top());
  EXPECT_TRUE(rec_skipped);
}

TEST(GroupExplanationTest, AllMembersInvalidMeansNotFoundWithSkips) {
  test::BookGraph bg = test::MakeBookGraph();
  EmigreOptions opts = test::MakeBookOptions(bg);
  Emigre engine(bg.g, opts);
  WhyNotGroupQuestion q;
  q.user = bg.paul;
  q.items = {bg.candide, bg.c_lang};  // both already interacted with
  Result<GroupExplanation> r =
      ExplainGroup(engine, q, Mode::kAdd, Heuristic::kIncremental);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
  EXPECT_EQ(r->skipped.size(), 2u);
  EXPECT_EQ(r->attempts, 0u);
}

TEST(GroupExplanationTest, EmptyGroupRejected) {
  test::BookGraph bg = test::MakeBookGraph();
  EmigreOptions opts = test::MakeBookOptions(bg);
  Emigre engine(bg.g, opts);
  EXPECT_TRUE(ExplainGroup(engine, WhyNotGroupQuestion{bg.paul, {}},
                           Mode::kAdd, Heuristic::kIncremental)
                  .status()
                  .IsInvalidArgument());
}

TEST(GroupExplanationTest, ItemsOfCategoryCollectsMembers) {
  test::BookGraph bg = test::MakeBookGraph();
  std::vector<NodeId> fantasy_items = ItemsOfCategory(
      bg.g, bg.fantasy, bg.belongs_to, bg.item_type);
  ASSERT_EQ(fantasy_items.size(), 2u);
  EXPECT_EQ(fantasy_items[0], bg.harry_potter);
  EXPECT_EQ(fantasy_items[1], bg.lotr);
  EXPECT_TRUE(ItemsOfCategory(bg.g, 999, bg.belongs_to, bg.item_type)
                  .empty());
}

TEST(GroupExplanationTest, CategoryQuestionEndToEnd) {
  test::BookGraph bg = test::MakeBookGraph();
  EmigreOptions opts = test::MakeBookOptions(bg);
  Emigre engine(bg.g, opts);
  recsys::RecommendationList ranking = engine.CurrentRanking(bg.paul);
  // "Why no Fantasy book?" — answerable iff some fantasy book can be
  // promoted; whatever the outcome, the result must be self-consistent.
  WhyNotGroupQuestion q;
  q.user = bg.paul;
  q.items = ItemsOfCategory(bg.g, bg.fantasy, bg.belongs_to, bg.item_type);
  Result<GroupExplanation> r =
      ExplainGroup(engine, q, Mode::kAdd, Heuristic::kBruteForce);
  ASSERT_TRUE(r.ok());
  if (r->found) {
    EXPECT_EQ(bg.g.NodeType(r->promoted_item), bg.item_type);
    ExplanationTester checker(bg.g, bg.paul, r->promoted_item, opts);
    EXPECT_TRUE(checker.Test(r->explanation.edges, r->explanation.mode));
  } else {
    EXPECT_GT(r->attempts + r->skipped.size(), 0u);
  }
}

}  // namespace
}  // namespace emigre::explain
