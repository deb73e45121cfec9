#include "explain/search_space.h"

#include <gtest/gtest.h>

#include "explain/emigre.h"
#include "ppr/power_iteration.h"
#include "recsys/recommender.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::explain {
namespace {

using graph::NodeId;

class SearchSpaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bg_ = test::MakeBookGraph();
    opts_ = test::MakeBookOptions(bg_);
    ranking_ = recsys::RankItems(bg_.g, bg_.paul, opts_.rec);
    rec_ = ranking_.Top();
    // Pick a Why-Not item: the lowest-ranked candidate (most room to
    // explain).
    wni_ = ranking_.at(ranking_.size() - 1).item;
  }

  test::BookGraph bg_;
  EmigreOptions opts_;
  recsys::RecommendationList ranking_;
  NodeId rec_ = graph::kInvalidNode;
  NodeId wni_ = graph::kInvalidNode;
};

TEST_F(SearchSpaceTest, RemoveSpaceContainsExactlyAllowedUserEdges) {
  Result<SearchSpace> space =
      BuildRemoveSearchSpace(bg_.g, bg_.paul, rec_, wni_, opts_);
  ASSERT_TRUE(space.ok()) << space.status();
  // Paul's allowed (rated) actions: Candide and C. The follows edges are
  // filtered by T_e.
  ASSERT_EQ(space->actions.size(), 2u);
  for (const CandidateAction& a : space->actions) {
    EXPECT_EQ(a.edge.src, bg_.paul);
    EXPECT_EQ(a.edge.type, bg_.rated);
    EXPECT_TRUE(a.edge.dst == bg_.candide || a.edge.dst == bg_.c_lang);
  }
  EXPECT_EQ(space->mode, Mode::kRemove);
  EXPECT_EQ(space->user, bg_.paul);
  EXPECT_EQ(space->rec, rec_);
  EXPECT_EQ(space->wni, wni_);
}

TEST_F(SearchSpaceTest, RemoveActionsSortedDescending) {
  Result<SearchSpace> space =
      BuildRemoveSearchSpace(bg_.g, bg_.paul, rec_, wni_, opts_);
  ASSERT_TRUE(space.ok());
  for (size_t i = 1; i < space->actions.size(); ++i) {
    EXPECT_GE(space->actions[i - 1].contribution,
              space->actions[i].contribution);
  }
}

TEST_F(SearchSpaceTest, TauIsSumOfRemoveContributions) {
  Result<SearchSpace> space =
      BuildRemoveSearchSpace(bg_.g, bg_.paul, rec_, wni_, opts_);
  ASSERT_TRUE(space.ok());
  double sum = 0.0;
  for (const CandidateAction& a : space->actions) sum += a.contribution;
  EXPECT_NEAR(space->tau, sum, 1e-12);
}

TEST_F(SearchSpaceTest, TauPositiveWhenRecDominates) {
  // "At the end of Algorithm 1, τ will be positive because in the current
  // setting rec dominates WNI" — holds for the gap semantics when the
  // user's actions are the only conduits (they are: Paul's rated edges).
  Result<SearchSpace> space =
      BuildRemoveSearchSpace(bg_.g, bg_.paul, rec_, wni_, opts_);
  ASSERT_TRUE(space.ok());
  EXPECT_GT(space->tau, 0.0);
}

TEST_F(SearchSpaceTest, ContributionMatchesEq5Definition) {
  Result<SearchSpace> space =
      BuildRemoveSearchSpace(bg_.g, bg_.paul, rec_, wni_, opts_);
  ASSERT_TRUE(space.ok());
  for (const CandidateAction& a : space->actions) {
    double w = bg_.g.EdgeWeight(a.edge.src, a.edge.dst, a.edge.type);
    double expected = w * (space->ppr_to_rec[a.edge.dst] -
                           space->ppr_to_wni[a.edge.dst]);
    EXPECT_NEAR(a.contribution, expected, 1e-12);
  }
}

TEST_F(SearchSpaceTest, ReversePushVectorsApproximatePpr) {
  Result<SearchSpace> space =
      BuildRemoveSearchSpace(bg_.g, bg_.paul, rec_, wni_, opts_);
  ASSERT_TRUE(space.ok());
  for (NodeId n : {bg_.candide, bg_.c_lang, bg_.paul}) {
    std::vector<double> p = ppr::PowerIterationPpr(bg_.g, n, opts_.rec.ppr);
    EXPECT_NEAR(space->ppr_to_rec[n], p[rec_], 1e-6);
    EXPECT_NEAR(space->ppr_to_wni[n], p[wni_], 1e-6);
  }
}

TEST_F(SearchSpaceTest, AddSpaceExcludesForbiddenEndpoints) {
  Result<SearchSpace> space =
      BuildAddSearchSpace(bg_.g, bg_.paul, rec_, wni_, opts_);
  ASSERT_TRUE(space.ok()) << space.status();
  for (const CandidateAction& a : space->actions) {
    EXPECT_EQ(a.edge.src, bg_.paul);
    EXPECT_EQ(a.edge.type, opts_.add_edge_type);
    EXPECT_NE(a.edge.dst, bg_.paul);
    EXPECT_NE(a.edge.dst, wni_);
    EXPECT_EQ(bg_.g.NodeType(a.edge.dst), opts_.rec.item_type);
    EXPECT_FALSE(bg_.g.HasEdge(bg_.paul, a.edge.dst));
  }
}

TEST_F(SearchSpaceTest, AddContributionMatchesEq6Definition) {
  Result<SearchSpace> space =
      BuildAddSearchSpace(bg_.g, bg_.paul, rec_, wni_, opts_);
  ASSERT_TRUE(space.ok());
  for (const CandidateAction& a : space->actions) {
    double expected = opts_.add_edge_weight *
                      (space->ppr_to_wni[a.edge.dst] -
                       space->ppr_to_rec[a.edge.dst]);
    EXPECT_NEAR(a.contribution, expected, 1e-12);
  }
}

TEST_F(SearchSpaceTest, AddAndRemoveTauAgree) {
  // Both algorithms compute τ from the user's existing edges; the values
  // must match.
  Result<SearchSpace> rm =
      BuildRemoveSearchSpace(bg_.g, bg_.paul, rec_, wni_, opts_);
  Result<SearchSpace> add =
      BuildAddSearchSpace(bg_.g, bg_.paul, rec_, wni_, opts_);
  ASSERT_TRUE(rm.ok());
  ASSERT_TRUE(add.ok());
  EXPECT_NEAR(rm->tau, add->tau, 1e-12);
}

TEST_F(SearchSpaceTest, AddCandidateCapKeepsStrongest) {
  EmigreOptions capped = opts_;
  capped.max_add_candidates = 1;
  Result<SearchSpace> full =
      BuildAddSearchSpace(bg_.g, bg_.paul, rec_, wni_, opts_);
  Result<SearchSpace> cut =
      BuildAddSearchSpace(bg_.g, bg_.paul, rec_, wni_, capped);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(cut.ok());
  ASSERT_EQ(cut->actions.size(), 1u);
  EXPECT_EQ(cut->actions[0].edge, full->actions[0].edge);
}

TEST_F(SearchSpaceTest, RejectsInvalidInputs) {
  EXPECT_TRUE(BuildRemoveSearchSpace(bg_.g, 999, rec_, wni_, opts_)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(BuildRemoveSearchSpace(bg_.g, bg_.paul, rec_, 999, opts_)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(BuildRemoveSearchSpace(bg_.g, bg_.paul, rec_, rec_, opts_)
                  .status()
                  .IsInvalidArgument());
  EmigreOptions no_add_type = opts_;
  no_add_type.add_edge_type = graph::kInvalidEdgeType;
  EXPECT_TRUE(BuildAddSearchSpace(bg_.g, bg_.paul, rec_, wni_, no_add_type)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SearchSpaceTest, EmptyAllowedTypesMeansAllTypes) {
  EmigreOptions open = opts_;
  open.allowed_edge_types.clear();
  Result<SearchSpace> space =
      BuildRemoveSearchSpace(bg_.g, bg_.paul, rec_, wni_, open);
  ASSERT_TRUE(space.ok());
  // Now the follows edges join the candidate list: 2 rated + 2 follows.
  EXPECT_EQ(space->actions.size(), 4u);
}

// The engine's space — its CSR graph through its reverse-push cache — is
// the free builder's over the source graph with the dense no-cache reverse
// push: same actions, bitwise-equal τ, contributions and PPR vectors.
void ExpectSameSpace(const SearchSpace& a, const SearchSpace& b) {
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.tau, b.tau);
  EXPECT_EQ(a.ppr_to_rec, b.ppr_to_rec);
  EXPECT_EQ(a.ppr_to_wni, b.ppr_to_wni);
  ASSERT_EQ(a.actions.size(), b.actions.size());
  for (size_t i = 0; i < a.actions.size(); ++i) {
    EXPECT_EQ(a.actions[i].edge, b.actions[i].edge) << "action " << i;
    EXPECT_EQ(a.actions[i].contribution, b.actions[i].contribution)
        << "action " << i;
  }
}

TEST(EngineSearchSpaceTest, MatchesNoCacheBuilderOverTheSource) {
  Rng rng(5);
  for (int round = 0; round < 3; ++round) {
    test::RandomHin rh = test::MakeRandomHin(rng, 8, 24, 3, 6);
    EmigreOptions opts = test::MakeRandomHinOptions(rh);
    Emigre engine(rh.g, opts);
    for (NodeId user : rh.users) {
      const NodeId rec = engine.CurrentRanking(user).Top();
      for (size_t i = 0; i < rh.items.size(); i += 5) {
        const NodeId wni = rh.items[i];
        if (wni == rec) continue;
        SCOPED_TRACE(testing::Message() << "round=" << round << " user="
                                        << user << " wni=" << wni);
        const WhyNotQuestion q{user, wni};
        for (Mode mode : {Mode::kRemove, Mode::kAdd}) {
          Result<SearchSpace> cached = engine.BuildSearchSpace(q, mode, rec);
          Result<SearchSpace> dense =
              mode == Mode::kRemove
                  ? BuildRemoveSearchSpace(rh.g, user, rec, wni, opts)
                  : BuildAddSearchSpace(rh.g, user, rec, wni, opts);
          ASSERT_TRUE(cached.ok()) << cached.status().ToString();
          ASSERT_TRUE(dense.ok()) << dense.status().ToString();
          ExpectSameSpace(cached.value(), dense.value());
        }
        // A second build reuses the cached PPR(·, WNI) and PPR(·, rec).
        const size_t hits = engine.ppr_cache().hits();
        ASSERT_TRUE(engine.BuildSearchSpace(q, Mode::kRemove, rec).ok());
        EXPECT_GT(engine.ppr_cache().hits(), hits);
      }
    }
  }
}

}  // namespace
}  // namespace emigre::explain
