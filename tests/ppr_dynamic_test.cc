#include "ppr/dynamic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "obs/metrics.h"
#include "ppr/power_iteration.h"
#include "ppr/workspace.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::ppr {
namespace {

using graph::HinGraph;
using graph::NodeId;

// Absolute tolerance for comparing maintained estimates against a fresh
// power iteration: per-node error is bounded by the push threshold times
// the node degree; use a comfortable multiple.
constexpr double kTol = 1e-5;

// Every case runs both refine paths side by side over the same graph: the
// workspace refine the testers use and the dense reference refine. They
// share no frontier code, so after the initial push and after every repair
// their estimates and residuals must be bitwise equal.
class BothPaths {
 public:
  BothPaths(const HinGraph& g, NodeId source, const PprOptions& opts)
      : dense_(g, source, opts), sparse_(g, source, opts, &ws_) {
    ExpectBitwiseEqual();
  }

  void BeforeOutEdgeChange(NodeId u) {
    dense_.BeforeOutEdgeChange(u);
    sparse_.BeforeOutEdgeChange(u);
  }

  void AfterOutEdgeChange(NodeId u) {
    dense_.AfterOutEdgeChange(u);
    sparse_.AfterOutEdgeChange(u);
    ExpectBitwiseEqual();
  }

  /// Both paths, for assertions that must hold on each.
  std::vector<DynamicForwardPush<HinGraph>*> paths() {
    return {&dense_, &sparse_};
  }

  /// Estimate of PPR(source, t); bitwise the same on both paths.
  double Estimate(NodeId t) const { return sparse_.Estimate(t); }

 private:
  void ExpectBitwiseEqual() const {
    EXPECT_EQ(dense_.Estimates(), sparse_.Estimates());
    EXPECT_EQ(dense_.Residuals(), sparse_.Residuals());
  }

  PushWorkspace ws_;  // declared first: sparse_ pushes into it on construction
  DynamicForwardPush<HinGraph> dense_;
  DynamicForwardPush<HinGraph> sparse_;
};

TEST(DynamicPushTest, MatchesFreshComputationAfterEdgeAddition) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  opts.epsilon = 1e-9;
  BothPaths dyn(bg.g, bg.paul, opts);

  dyn.BeforeOutEdgeChange(bg.paul);
  ASSERT_TRUE(bg.g.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
  dyn.AfterOutEdgeChange(bg.paul);

  std::vector<double> fresh = PowerIterationPpr(bg.g, bg.paul, opts);
  for (NodeId t = 0; t < bg.g.NumNodes(); ++t) {
    EXPECT_NEAR(dyn.Estimate(t), fresh[t], kTol) << "t=" << t;
  }
}

TEST(DynamicPushTest, MatchesFreshComputationAfterEdgeRemoval) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  opts.epsilon = 1e-9;
  BothPaths dyn(bg.g, bg.paul, opts);

  dyn.BeforeOutEdgeChange(bg.paul);
  ASSERT_TRUE(bg.g.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  dyn.AfterOutEdgeChange(bg.paul);

  std::vector<double> fresh = PowerIterationPpr(bg.g, bg.paul, opts);
  for (NodeId t = 0; t < bg.g.NumNodes(); ++t) {
    EXPECT_NEAR(dyn.Estimate(t), fresh[t], kTol) << "t=" << t;
  }
}

TEST(DynamicPushTest, HandlesChangesAwayFromSource) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  opts.epsilon = 1e-9;
  BothPaths dyn(bg.g, bg.paul, opts);

  // Mutate Bob's neighborhood, two hops from Paul.
  dyn.BeforeOutEdgeChange(bg.bob);
  ASSERT_TRUE(bg.g.RemoveEdge(bg.bob, bg.harry_potter, bg.rated).ok());
  dyn.AfterOutEdgeChange(bg.bob);

  std::vector<double> fresh = PowerIterationPpr(bg.g, bg.paul, opts);
  for (NodeId t = 0; t < bg.g.NumNodes(); ++t) {
    EXPECT_NEAR(dyn.Estimate(t), fresh[t], kTol) << "t=" << t;
  }
}

TEST(DynamicPushTest, SurvivesLongRandomEditSequence) {
  Rng rng(31337);
  test::RandomHin rh = test::MakeRandomHin(rng, 5, 20, 3, 6);
  PprOptions opts;
  opts.epsilon = 1e-9;
  NodeId source = rh.users[0];
  BothPaths dyn(rh.g, source, opts);

  for (int step = 0; step < 40; ++step) {
    NodeId src = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
    NodeId dst = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
    dyn.BeforeOutEdgeChange(src);
    bool mutated;
    if (rh.g.HasEdge(src, dst, rh.rated)) {
      mutated = rh.g.RemoveEdge(src, dst, rh.rated).ok();
    } else {
      mutated = rh.g.AddEdge(src, dst, rh.rated, 1.0).ok();
    }
    dyn.AfterOutEdgeChange(src);
    ASSERT_TRUE(mutated);
  }

  std::vector<double> fresh = PowerIterationPpr(rh.g, source, opts);
  for (NodeId t = 0; t < rh.g.NumNodes(); ++t) {
    EXPECT_NEAR(dyn.Estimate(t), fresh[t], 1e-4) << "t=" << t;
  }
  for (auto* path : dyn.paths()) EXPECT_LT(path->AbsResidualMass(), 1.0);
}

// `residual_mass` is maintained incrementally (one float add per repair
// delta), so each repair can contribute a rounding error. Over thousands of
// repairs the accumulated drift against the ground truth (a scan of the
// residual vector) must stay negligible — the periodic resync inside
// AfterOutEdgeChange re-derives the mass every
// kResidualMassResyncInterval repairs, so at any point the drift is at
// most one interval's worth of roundings.
TEST(DynamicPushTest, ResidualMassDriftBoundedOverThousandsOfRepairs) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  opts.epsilon = 1e-8;
  BothPaths dyn(bg.g, bg.paul, opts);

  const uint64_t resyncs_before =
      obs::Registry::Global().GetCounter("ppr.dyn.resyncs").Value();
  // 1500 remove/re-add cycles = 3000 repairs: enough to cross the
  // 1024-repair resync interval at least twice on each path.
  for (int cycle = 0; cycle < 1500; ++cycle) {
    dyn.BeforeOutEdgeChange(bg.paul);
    ASSERT_TRUE(bg.g.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
    dyn.AfterOutEdgeChange(bg.paul);
    dyn.BeforeOutEdgeChange(bg.paul);
    ASSERT_TRUE(bg.g.AddEdge(bg.paul, bg.candide, bg.rated, 1.0).ok());
    dyn.AfterOutEdgeChange(bg.paul);
  }
  const uint64_t resyncs =
      obs::Registry::Global().GetCounter("ppr.dyn.resyncs").Value() -
      resyncs_before;
  EXPECT_GE(resyncs, 4u) << "periodic resync did not trigger";

  std::vector<double> fresh = PowerIterationPpr(bg.g, bg.paul, opts);
  for (auto* path : dyn.paths()) {
    // Whatever accumulated since the last automatic resync is at most one
    // interval of float roundings — far below the push tolerance.
    double drift = path->ResyncResidualMass();
    EXPECT_LT(std::abs(drift), 1e-9);

    // After a resync the incremental mass IS the scan, bitwise.
    double scan = 0.0;
    for (double r : path->Residuals()) scan += r;
    EXPECT_EQ(path->State().residual_mass, scan);

    // The state itself is still correct (the graph is back to baseline).
    for (NodeId t = 0; t < bg.g.NumNodes(); ++t) {
      EXPECT_NEAR(path->Estimate(t), fresh[t], kTol) << "t=" << t;
    }
  }
}

TEST(DynamicPushTest, NodeBecomingDanglingAndBack) {
  HinGraph g;
  graph::EdgeTypeId t = g.RegisterEdgeType("e");
  NodeId a = g.AddNode("n");
  NodeId b = g.AddNode("n");
  NodeId c = g.AddNode("n");
  ASSERT_TRUE(g.AddEdge(a, b, t).ok());
  ASSERT_TRUE(g.AddEdge(b, c, t).ok());

  PprOptions opts;
  opts.epsilon = 1e-10;
  BothPaths dyn(g, a, opts);

  // b loses its only out-edge -> becomes dangling.
  dyn.BeforeOutEdgeChange(b);
  ASSERT_TRUE(g.RemoveEdge(b, c, t).ok());
  dyn.AfterOutEdgeChange(b);
  std::vector<double> fresh = PowerIterationPpr(g, a, opts);
  for (NodeId x = 0; x < g.NumNodes(); ++x) {
    EXPECT_NEAR(dyn.Estimate(x), fresh[x], kTol);
  }

  // ... and gains it back.
  dyn.BeforeOutEdgeChange(b);
  ASSERT_TRUE(g.AddEdge(b, c, t).ok());
  dyn.AfterOutEdgeChange(b);
  fresh = PowerIterationPpr(g, a, opts);
  for (NodeId x = 0; x < g.NumNodes(); ++x) {
    EXPECT_NEAR(dyn.Estimate(x), fresh[x], kTol);
  }
}

}  // namespace
}  // namespace emigre::ppr
