#include "explain/emigre.h"

#include <gtest/gtest.h>

#include <memory>

#include "explain/tester.h"
#include "recsys/recommender.h"
#include "test_util.h"

namespace emigre::explain {
namespace {

using graph::NodeId;

class EmigreFacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bg_ = test::MakeBookGraph();
    opts_ = test::MakeBookOptions(bg_);
    engine_ = std::make_unique<Emigre>(bg_.g, opts_);
    ranking_ = engine_->CurrentRanking(bg_.paul);
    rec_ = ranking_.Top();
  }

  test::BookGraph bg_;
  EmigreOptions opts_;
  std::unique_ptr<Emigre> engine_;
  recsys::RecommendationList ranking_;
  NodeId rec_;
};

TEST_F(EmigreFacadeTest, RejectsNonItemWhyNot) {
  Result<Explanation> r =
      engine_->Explain(WhyNotQuestion{bg_.paul, bg_.fantasy}, Mode::kAdd,
                       Heuristic::kIncremental);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(EmigreFacadeTest, RejectsInteractedItem) {
  // Paul rated Candide: per Definition 4.1 it cannot be a Why-Not item.
  Result<Explanation> r =
      engine_->Explain(WhyNotQuestion{bg_.paul, bg_.candide}, Mode::kAdd,
                       Heuristic::kIncremental);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(EmigreFacadeTest, RejectsCurrentRecommendation) {
  Result<Explanation> r = engine_->Explain(WhyNotQuestion{bg_.paul, rec_},
                                           Mode::kAdd,
                                           Heuristic::kIncremental);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(EmigreFacadeTest, RejectsInvalidNodes) {
  EXPECT_TRUE(engine_
                  ->Explain(WhyNotQuestion{999, bg_.lotr}, Mode::kAdd,
                            Heuristic::kIncremental)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine_
                  ->Explain(WhyNotQuestion{bg_.paul, 999}, Mode::kAdd,
                            Heuristic::kIncremental)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(EmigreFacadeTest, ExplainAutoFindsSomeExplanation) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  Emigre engine(f.g, f.opts);
  Result<Explanation> r = engine.ExplainAuto(WhyNotQuestion{f.user, f.wni});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->found);
  ExplanationTester checker(f.g, f.user, f.wni, f.opts);
  EXPECT_TRUE(checker.Test(r->edges, r->mode));
}

TEST_F(EmigreFacadeTest, ExplainAutoPrefersRemoveWhenItWorks) {
  NodeId wni = ranking_.at(1).item;
  Result<Explanation> remove = engine_->Explain(
      WhyNotQuestion{bg_.paul, wni}, Mode::kRemove, Heuristic::kIncremental);
  ASSERT_TRUE(remove.ok());
  Result<Explanation> aut = engine_->ExplainAuto(WhyNotQuestion{bg_.paul, wni});
  ASSERT_TRUE(aut.ok());
  if (remove->found) {
    EXPECT_EQ(aut->mode, Mode::kRemove);
  } else {
    EXPECT_EQ(aut->mode, Mode::kAdd);
  }
}

TEST_F(EmigreFacadeTest, ExplainAutoSkipsRemoveForActionlessUser) {
  NodeId newbie = bg_.g.AddNode(bg_.user_type, "Newbie");
  Emigre engine(bg_.g, opts_);
  Result<Explanation> r = engine.ExplainAuto(WhyNotQuestion{newbie, bg_.lotr});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->mode, Mode::kAdd);
}

TEST_F(EmigreFacadeTest, CurrentRankingMatchesRecommender) {
  recsys::RecommendationList direct =
      recsys::RankItems(bg_.g, bg_.paul, opts_.rec);
  ASSERT_EQ(ranking_.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(ranking_.at(i).item, direct.at(i).item);
  }
}

TEST_F(EmigreFacadeTest, OriginalRecRecordedOnExplanations) {
  NodeId wni = ranking_.at(1).item;
  for (Mode mode : {Mode::kRemove, Mode::kAdd}) {
    Result<Explanation> r = engine_->Explain(WhyNotQuestion{bg_.paul, wni},
                                             mode, Heuristic::kIncremental);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->original_rec, rec_);
  }
}

// The engine reads only its own CSR snapshot: the graph it was built from
// may be mutated and destroyed without changing any of its answers.
TEST(EmigreContractTest, AnswersSurviveMutatingAndDestroyingTheSource) {
  test::ScenarioFixture f = test::MakeAddFriendlyCase();
  std::unique_ptr<Emigre> engine;
  recsys::RecommendationList ranking;
  WhyNotQuestion q;
  Explanation explained;
  auto expect_unchanged = [&] {
    EXPECT_EQ(engine->CurrentRanking(f.user).items(), ranking.items());
    Result<Explanation> again = engine->Explain(q, Mode::kAdd,
                                                Heuristic::kIncremental);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again->found, explained.found);
    EXPECT_EQ(again->edges, explained.edges);
    EXPECT_EQ(again->original_rec, explained.original_rec);
    EXPECT_EQ(again->new_rec, explained.new_rec);
    EXPECT_EQ(again->failure, explained.failure);
  };
  {
    graph::HinGraph source = f.g;
    engine = std::make_unique<Emigre>(source, f.opts);
    ranking = engine->CurrentRanking(f.user);
    q = WhyNotQuestion{f.user, f.wni};
    Result<Explanation> r =
        engine->Explain(q, Mode::kAdd, Heuristic::kIncremental);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r->found);
    explained = *r;
    // Rating the top item takes it out of the source's candidate set.
    ASSERT_TRUE(
        source.AddEdge(f.user, ranking.Top(), f.opts.add_edge_type, 1.0).ok());
    expect_unchanged();
  }
  expect_unchanged();
}

TEST(ExplanationNamesTest, EnumsHaveStableNames) {
  EXPECT_EQ(ModeName(Mode::kAdd), "add");
  EXPECT_EQ(ModeName(Mode::kRemove), "remove");
  EXPECT_EQ(HeuristicName(Heuristic::kIncremental), "Incremental");
  EXPECT_EQ(HeuristicName(Heuristic::kPowerset), "Powerset");
  EXPECT_EQ(HeuristicName(Heuristic::kExhaustive), "ex");
  EXPECT_EQ(HeuristicName(Heuristic::kExhaustiveDirect), "ex_direct");
  EXPECT_EQ(HeuristicName(Heuristic::kBruteForce), "brute");
  EXPECT_EQ(FailureReasonName(FailureReason::kColdStart), "cold-start");
  EXPECT_EQ(FailureReasonName(FailureReason::kPopularItem), "popular-item");
}

}  // namespace
}  // namespace emigre::explain
