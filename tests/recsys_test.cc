#include "recsys/recommender.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/csr.h"
#include "graph/csr_overlay.h"
#include "graph/overlay.h"
#include "obs/metrics.h"
#include "ppr/power_iteration.h"
#include "ppr/workspace.h"
#include "recsys/recwalk.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::recsys {
namespace {

using graph::NodeId;

TEST(RecListTest, SortsByScoreThenId) {
  RecommendationList list({{5, 0.1}, {2, 0.5}, {9, 0.5}, {1, 0.0}});
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list.at(0).item, 2u);  // 0.5, lower id first on tie
  EXPECT_EQ(list.at(1).item, 9u);
  EXPECT_EQ(list.at(2).item, 5u);
  EXPECT_EQ(list.at(3).item, 1u);
  EXPECT_EQ(list.Top(), 2u);
  EXPECT_EQ(list.RankOf(9), 1u);
  EXPECT_EQ(list.RankOf(42), list.size());
  EXPECT_TRUE(list.Contains(5));
  EXPECT_FALSE(list.Contains(42));
  EXPECT_DOUBLE_EQ(list.ScoreOf(2), 0.5);
  EXPECT_DOUBLE_EQ(list.ScoreOf(42), 0.0);
}

TEST(RecListTest, TopNTruncates) {
  RecommendationList list({{1, 0.3}, {2, 0.2}, {3, 0.1}});
  RecommendationList top2 = list.TopN(2);
  EXPECT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2.at(1).item, 2u);
  EXPECT_EQ(list.TopN(10).size(), 3u);
}

TEST(RecListTest, EmptyList) {
  RecommendationList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.Top(), graph::kInvalidNode);
}

TEST(RecommenderTest, ExcludesInteractedAndNonItems) {
  test::BookGraph bg = test::MakeBookGraph();
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  RecommendationList list = RankItems(bg.g, bg.paul, opts);

  // Paul rated Candide and C: they must not appear.
  EXPECT_FALSE(list.Contains(bg.candide));
  EXPECT_FALSE(list.Contains(bg.c_lang));
  // Categories and users must not appear.
  EXPECT_FALSE(list.Contains(bg.fantasy));
  EXPECT_FALSE(list.Contains(bg.alice));
  // The four remaining books do.
  EXPECT_TRUE(list.Contains(bg.harry_potter));
  EXPECT_TRUE(list.Contains(bg.lotr));
  EXPECT_TRUE(list.Contains(bg.python));
  EXPECT_TRUE(list.Contains(bg.alchemist));
  EXPECT_EQ(list.size(), 4u);
}

TEST(RecommenderTest, ScoresMatchPowerIteration) {
  test::BookGraph bg = test::MakeBookGraph();
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  RecommendationList list = RankItems(bg.g, bg.paul, opts);
  std::vector<double> p = ppr::PowerIterationPpr(bg.g, bg.paul, opts.ppr);
  for (const ScoredItem& si : list.items()) {
    EXPECT_DOUBLE_EQ(si.score, p[si.item]);
  }
}

TEST(RecommenderTest, RecommendIsTopOfRanking) {
  test::BookGraph bg = test::MakeBookGraph();
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  EXPECT_EQ(Recommend(bg.g, bg.paul, opts),
            RankItems(bg.g, bg.paul, opts).Top());
}

TEST(RecommenderTest, DeterministicAcrossCalls) {
  test::BookGraph bg = test::MakeBookGraph();
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  RecommendationList a = RankItems(bg.g, bg.paul, opts);
  RecommendationList b = RankItems(bg.g, bg.paul, opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).item, b.at(i).item);
  }
}

TEST(RecommenderTest, WorksOnOverlay) {
  test::BookGraph bg = test::MakeBookGraph();
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  graph::GraphOverlay o(bg.g);
  // Adding an edge to an item excludes it from the candidates.
  NodeId before = Recommend(o, bg.paul, opts);
  ASSERT_TRUE(o.AddEdge(bg.paul, before, bg.rated).ok());
  NodeId after = Recommend(o, bg.paul, opts);
  EXPECT_NE(after, before);
}

TEST(RecommenderTest, HasOutEdgeToHelper) {
  test::BookGraph bg = test::MakeBookGraph();
  EXPECT_TRUE(HasOutEdgeTo(bg.g, bg.paul, bg.candide));
  EXPECT_FALSE(HasOutEdgeTo(bg.g, bg.paul, bg.lotr));
  EXPECT_TRUE(IsCandidateItem(bg.g, bg.paul, bg.lotr, bg.item_type));
  EXPECT_FALSE(IsCandidateItem(bg.g, bg.paul, bg.candide, bg.item_type));
  EXPECT_FALSE(IsCandidateItem(bg.g, bg.paul, bg.fantasy, bg.item_type));
  EXPECT_FALSE(IsCandidateItem(bg.g, bg.paul, bg.paul, bg.item_type));
}

TEST(RecommenderTest, UserWithNoCandidatesGetsEmptyList) {
  graph::HinGraph g;
  graph::NodeTypeId user_type = g.RegisterNodeType("user");
  graph::NodeTypeId item_type = g.RegisterNodeType("item");
  graph::EdgeTypeId rated = g.RegisterEdgeType("rated");
  NodeId u = g.AddNode(user_type);
  NodeId i = g.AddNode(item_type);
  ASSERT_TRUE(g.AddEdge(u, i, rated).ok());
  RecommenderOptions opts;
  opts.item_type = item_type;
  EXPECT_TRUE(RankItems(g, u, opts).empty());
  EXPECT_EQ(Recommend(g, u, opts), graph::kInvalidNode);
  ppr::PushWorkspace ws;
  EXPECT_EQ(Recommend(g, u, opts, &ws), graph::kInvalidNode);
}

// ---------------------------------------------------------------------------
// Certified top-1 (the workspace Recommend). Every case must name the item
// the allocating RankItems ranks first.

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

/// Power-iteration sweeps and certified stops spent inside `solve`.
struct SolveCounts {
  uint64_t sweeps = 0;
  uint64_t certified = 0;
};

template <typename F>
SolveCounts CountSolve(F&& solve) {
  const uint64_t sweeps = CounterValue("ppr.power.iterations");
  const uint64_t certified = CounterValue("ppr.power.certified");
  solve();
  return {CounterValue("ppr.power.iterations") - sweeps,
          CounterValue("ppr.power.certified") - certified};
}

/// A user who rated one hub item, and items behind the hub's category: two
/// twins (with the default weight, mirrored edges that tie exactly at every
/// sweep) and a weaker item.
struct TwinGraph {
  graph::HinGraph g;
  graph::NodeTypeId item_type;
  NodeId user, hub, twin_a, twin_b, weak;
};

TwinGraph MakeTwinGraph(double twin_b_weight = 2.0) {
  TwinGraph t;
  graph::NodeTypeId user_type = t.g.RegisterNodeType("user");
  t.item_type = t.g.RegisterNodeType("item");
  graph::NodeTypeId cat_type = t.g.RegisterNodeType("category");
  graph::EdgeTypeId rated = t.g.RegisterEdgeType("rated");
  graph::EdgeTypeId belongs = t.g.RegisterEdgeType("belongs-to");
  t.user = t.g.AddNode(user_type);
  t.hub = t.g.AddNode(t.item_type);
  t.twin_a = t.g.AddNode(t.item_type);
  t.twin_b = t.g.AddNode(t.item_type);
  t.weak = t.g.AddNode(t.item_type);
  NodeId cat = t.g.AddNode(cat_type);
  t.g.AddBidirectional(t.user, t.hub, rated).CheckOK();
  t.g.AddBidirectional(t.hub, cat, belongs).CheckOK();
  t.g.AddBidirectional(t.twin_a, cat, belongs, 2.0).CheckOK();
  t.g.AddBidirectional(t.twin_b, cat, belongs, twin_b_weight).CheckOK();
  t.g.AddBidirectional(t.weak, cat, belongs, 0.5).CheckOK();
  return t;
}

TEST(CertifiedTopTest, ExactTieRunsToConvergenceAndKeepsLowestId) {
  TwinGraph t = MakeTwinGraph();
  RecommenderOptions opts;
  opts.item_type = t.item_type;
  NodeId want = graph::kInvalidNode;
  SolveCounts reference = CountSolve([&] {
    RecommendationList list = RankItems(t.g, t.user, opts);
    ASSERT_GE(list.size(), 2u);
    ASSERT_EQ(list.at(0).score, list.at(1).score);  // the tie is exact
    want = list.Top();
  });
  EXPECT_EQ(want, t.twin_a);

  ppr::PushWorkspace ws;
  NodeId got = graph::kInvalidNode;
  SolveCounts certified =
      CountSolve([&] { got = Recommend(t.g, t.user, opts, &ws); });
  EXPECT_EQ(got, want);
  EXPECT_EQ(certified.sweeps, reference.sweeps);
  EXPECT_EQ(certified.certified, 0u);
}

TEST(CertifiedTopTest, ClearWinnerStopsInFewerSweeps) {
  // A lighter second twin leaves the first one clearly ahead; the
  // certificate must fire well before the tolerance does.
  TwinGraph t = MakeTwinGraph(/*twin_b_weight=*/1.0);
  RecommenderOptions opts;
  opts.item_type = t.item_type;
  NodeId want = graph::kInvalidNode;
  SolveCounts reference =
      CountSolve([&] { want = RankItems(t.g, t.user, opts).Top(); });
  EXPECT_EQ(want, t.twin_a);

  ppr::PushWorkspace ws;
  NodeId got = graph::kInvalidNode;
  SolveCounts certified =
      CountSolve([&] { got = Recommend(t.g, t.user, opts, &ws); });
  EXPECT_EQ(got, want);
  EXPECT_LT(certified.sweeps, reference.sweeps);
  EXPECT_EQ(certified.certified, 1u);
}

TEST(CertifiedTopTest, OneCandidate) {
  graph::HinGraph g;
  graph::NodeTypeId user_type = g.RegisterNodeType("user");
  graph::NodeTypeId item_type = g.RegisterNodeType("item");
  graph::EdgeTypeId rated = g.RegisterEdgeType("rated");
  NodeId u = g.AddNode(user_type);
  NodeId seen = g.AddNode(item_type);
  NodeId fresh = g.AddNode(item_type);
  ASSERT_TRUE(g.AddBidirectional(u, seen, rated).ok());
  RecommenderOptions opts;
  opts.item_type = item_type;
  ppr::PushWorkspace ws;
  EXPECT_EQ(RankItems(g, u, opts).Top(), fresh);
  EXPECT_EQ(Recommend(g, u, opts, &ws), fresh);
}

TEST(CertifiedTopTest, DanglingUser) {
  // A user with no out-edges keeps all mass: every item scores 0.
  test::BookGraph bg = test::MakeBookGraph();
  NodeId loner = bg.g.AddNode(bg.user_type);
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  ppr::PushWorkspace ws;
  NodeId want = RankItems(bg.g, loner, opts).Top();
  EXPECT_NE(want, graph::kInvalidNode);
  EXPECT_EQ(Recommend(bg.g, loner, opts, &ws), want);
}

TEST(CertifiedTopTest, UserBeyondNumNodes) {
  // Out-of-range users score nothing: the reference returns the lowest-id
  // candidate over all-zero scores, and neither path may index the user.
  test::BookGraph bg = test::MakeBookGraph();
  graph::CsrGraph csr(bg.g);
  graph::CsrOverlay overlay(csr);
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  ppr::PushWorkspace ws;
  std::vector<NodeId> items = bg.g.NodesOfType(bg.item_type);
  NodeId lowest = *std::min_element(items.begin(), items.end());
  for (NodeId user : {static_cast<NodeId>(bg.g.NumNodes()),
                      static_cast<NodeId>(bg.g.NumNodes() + 7)}) {
    EXPECT_EQ(RankItems(bg.g, user, opts).Top(), lowest);
    EXPECT_EQ(Recommend(bg.g, user, opts, &ws), lowest);
    EXPECT_EQ(RankItems(overlay, user, opts).Top(), lowest);
    EXPECT_EQ(Recommend(overlay, user, opts, &ws), lowest);
  }
}

// ---------------------------------------------------------------------------
// RecWalk
// ---------------------------------------------------------------------------

TEST(RecWalkTest, AddsSimilarityEdgesBetweenCoRatedItems) {
  test::BookGraph bg = test::MakeBookGraph();
  RecWalkOptions opts;
  opts.beta = 0.5;
  Result<graph::HinGraph> rw =
      BuildRecWalkGraph(bg.g, bg.item_type, bg.user_type, opts);
  ASSERT_TRUE(rw.ok()) << rw.status();
  const graph::HinGraph& g2 = rw.value();
  graph::EdgeTypeId sim = g2.FindEdgeType("similar-to");
  ASSERT_NE(sim, graph::kInvalidEdgeType);

  // Alice rated HP, LotR, Candide together -> HP and LotR are similar.
  EXPECT_TRUE(g2.HasEdge(bg.harry_potter, bg.lotr, sim));
  // Python and LotR share no user -> no similarity edge.
  EXPECT_FALSE(g2.HasEdge(bg.python, bg.lotr, sim));
}

TEST(RecWalkTest, BetaControlsMassSplit) {
  test::BookGraph bg = test::MakeBookGraph();
  RecWalkOptions opts;
  opts.beta = 0.7;
  opts.min_similarity = 0.0;
  Result<graph::HinGraph> rw =
      BuildRecWalkGraph(bg.g, bg.item_type, bg.user_type, opts);
  ASSERT_TRUE(rw.ok());
  const graph::HinGraph& g2 = rw.value();
  graph::EdgeTypeId sim = g2.FindEdgeType("similar-to");

  // For an item with similarity edges, the similarity block holds (1-beta)
  // of the total out-weight.
  double orig = 0.0;
  double similar = 0.0;
  for (const graph::Edge& e : g2.OutEdges(bg.harry_potter)) {
    if (e.type == sim) {
      similar += e.weight;
    } else {
      orig += e.weight;
    }
  }
  ASSERT_GT(similar, 0.0);
  double total = orig + similar;
  EXPECT_NEAR(orig / total, opts.beta, 1e-9);
  EXPECT_NEAR(similar / total, 1.0 - opts.beta, 1e-9);
}

TEST(RecWalkTest, BetaOneKeepsPlainWalk) {
  test::BookGraph bg = test::MakeBookGraph();
  RecWalkOptions opts;
  opts.beta = 1.0;
  Result<graph::HinGraph> rw =
      BuildRecWalkGraph(bg.g, bg.item_type, bg.user_type, opts);
  ASSERT_TRUE(rw.ok());
  // Similarity edges carry zero budget -> none added.
  graph::EdgeTypeId sim = rw->FindEdgeType("similar-to");
  for (NodeId n = 0; n < rw->NumNodes(); ++n) {
    for (const graph::Edge& e : rw->OutEdges(n)) {
      EXPECT_NE(e.type, sim);
    }
  }
}

TEST(RecWalkTest, RejectsBadBeta) {
  test::BookGraph bg = test::MakeBookGraph();
  RecWalkOptions opts;
  opts.beta = 1.5;
  EXPECT_TRUE(BuildRecWalkGraph(bg.g, bg.item_type, bg.user_type, opts)
                  .status()
                  .IsInvalidArgument());
}

TEST(RecWalkTest, PprOnRecWalkGraphStillNormalizes) {
  test::BookGraph bg = test::MakeBookGraph();
  Result<graph::HinGraph> rw =
      BuildRecWalkGraph(bg.g, bg.item_type, bg.user_type, RecWalkOptions{});
  ASSERT_TRUE(rw.ok());
  std::vector<double> p =
      ppr::PowerIterationPpr(rw.value(), bg.paul, ppr::PprOptions{});
  double sum = 0.0;
  for (double x : p) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-8);
}

TEST(RecWalkTest, TopKSimilarCapRespected) {
  Rng rng(9);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 15, 2, 10);
  RecWalkOptions opts;
  opts.top_k_similar = 2;
  opts.min_similarity = 0.0;
  Result<graph::HinGraph> rw =
      BuildRecWalkGraph(rh.g, rh.item_type, rh.user_type, opts);
  ASSERT_TRUE(rw.ok());
  graph::EdgeTypeId sim = rw->FindEdgeType("similar-to");
  for (NodeId item : rh.items) {
    size_t sim_degree = 0;
    for (const graph::Edge& e : rw->OutEdges(item)) {
      if (e.type == sim) ++sim_degree;
    }
    EXPECT_LE(sim_degree, 2u) << "item " << item;
  }
}

}  // namespace
}  // namespace emigre::recsys
