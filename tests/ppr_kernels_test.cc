#include "ppr/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "check/invariants.h"
#include "graph/csr.h"
#include "graph/csr_overlay.h"
#include "graph/overlay.h"
#include "ppr/dynamic.h"
#include "ppr/forward_push.h"
#include "ppr/power_iteration.h"
#include "ppr/reverse_push.h"
#include "ppr/workspace.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::ppr {
namespace {

using graph::CsrGraph;
using graph::CsrOverlay;
using graph::EdgeTypeId;
using graph::GraphOverlay;
using graph::HinGraph;
using graph::NodeId;

// ---------------------------------------------------------------------------
// SparseVector

TEST(SparseVectorTest, GetAndToDense) {
  SparseVector v({1, 4, 7}, {0.5, -2.0, 3.25});
  EXPECT_EQ(v.size(), 3u);
  EXPECT_FALSE(v.empty());
  EXPECT_DOUBLE_EQ(v.Get(1), 0.5);
  EXPECT_DOUBLE_EQ(v.Get(4), -2.0);
  EXPECT_DOUBLE_EQ(v.Get(7), 3.25);
  EXPECT_DOUBLE_EQ(v.Get(0), 0.0);
  EXPECT_DOUBLE_EQ(v.Get(5), 0.0);
  EXPECT_DOUBLE_EQ(v.Get(100), 0.0);
  std::vector<double> dense = v.ToDense(9);
  ASSERT_EQ(dense.size(), 9u);
  EXPECT_DOUBLE_EQ(dense[1], 0.5);
  EXPECT_DOUBLE_EQ(dense[4], -2.0);
  EXPECT_DOUBLE_EQ(dense[7], 3.25);
  EXPECT_DOUBLE_EQ(dense[0], 0.0);
  // Entries beyond the requested dense size are dropped, not a crash.
  EXPECT_EQ(v.ToDense(4).size(), 4u);
  EXPECT_GT(v.MemoryBytes(), 0u);
  EXPECT_TRUE(SparseVector().empty());
}

// ---------------------------------------------------------------------------
// Kernel vs. legacy equivalence (bitwise)

// Runs both engines and requires *bitwise* identical estimates/residuals:
// the kernels replay the exact legacy push schedule and float-op order.
template <typename G>
void ExpectForwardBitwiseEqual(const G& g, NodeId source,
                               const PprOptions& opts, PushWorkspace& ws) {
  PushResult legacy = ForwardPush(g, source, opts);
  KernelResult kr = ForwardPushKernel(g, source, opts, ws);
  PushResult kernel = ExportDensePush(ws, g.NumNodes(), kr.residual_mass);
  ASSERT_EQ(kernel.estimate.size(), legacy.estimate.size());
  for (size_t v = 0; v < legacy.estimate.size(); ++v) {
    ASSERT_EQ(kernel.estimate[v], legacy.estimate[v])
        << "estimate diverges at node " << v << " (source " << source << ")";
    ASSERT_EQ(kernel.residual[v], legacy.residual[v])
        << "residual diverges at node " << v << " (source " << source << ")";
  }
  EXPECT_NEAR(kernel.ResidualMass(), legacy.ResidualMass(), 1e-12);
}

template <typename G>
void ExpectReverseBitwiseEqual(const G& g, NodeId target,
                               const PprOptions& opts, PushWorkspace& ws) {
  PushResult legacy = ReversePush(g, target, opts);
  KernelResult kr = ReversePushKernel(g, target, opts, ws);
  PushResult kernel = ExportDensePush(ws, g.NumNodes(), kr.residual_mass);
  ASSERT_EQ(kernel.estimate.size(), legacy.estimate.size());
  for (size_t v = 0; v < legacy.estimate.size(); ++v) {
    ASSERT_EQ(kernel.estimate[v], legacy.estimate[v])
        << "estimate diverges at node " << v << " (target " << target << ")";
    ASSERT_EQ(kernel.residual[v], legacy.residual[v])
        << "residual diverges at node " << v << " (target " << target << ")";
  }
  EXPECT_NEAR(kernel.ResidualMass(), legacy.ResidualMass(), 1e-12);
}

TEST(KernelEquivalenceTest, ForwardMatchesLegacyOnBookGraph) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  PushWorkspace ws;
  for (NodeId s = 0; s < bg.g.NumNodes(); ++s) {
    ExpectForwardBitwiseEqual(bg.g, s, opts, ws);
  }
}

TEST(KernelEquivalenceTest, ReverseMatchesLegacyOnBookGraph) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  PushWorkspace ws;
  for (NodeId t = 0; t < bg.g.NumNodes(); ++t) {
    ExpectReverseBitwiseEqual(bg.g, t, opts, ws);
  }
}

TEST(KernelEquivalenceTest, MatchesLegacyOnRandomHins) {
  Rng rng(7);
  PushWorkspace ws;  // ONE workspace reused across every graph and source
  for (int round = 0; round < 4; ++round) {
    test::RandomHin rh = test::MakeRandomHin(rng, 8, 30, 4, 5);
    PprOptions opts;
    opts.epsilon = round % 2 == 0 ? 1e-6 : 1e-4;
    for (NodeId u : rh.users) ExpectForwardBitwiseEqual(rh.g, u, opts, ws);
    for (size_t i = 0; i < 5 && i < rh.items.size(); ++i) {
      ExpectReverseBitwiseEqual(rh.g, rh.items[i], opts, ws);
    }
  }
}

TEST(KernelEquivalenceTest, MatchesLegacyOnCsrSnapshotAndOverlay) {
  test::BookGraph bg = test::MakeBookGraph();
  CsrGraph csr(bg.g);
  PprOptions opts;
  PushWorkspace ws;
  // Clean snapshot.
  for (NodeId s = 0; s < csr.NumNodes(); ++s) {
    ExpectForwardBitwiseEqual(csr, s, opts, ws);
    ExpectReverseBitwiseEqual(csr, s, opts, ws);
  }
  // Edited overlay: remove one base edge, add one new edge. The reference
  // is the legacy engine running over the same overlay view.
  CsrOverlay o(csr);
  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
  for (NodeId s = 0; s < o.NumNodes(); ++s) {
    ExpectForwardBitwiseEqual(o, s, opts, ws);
    ExpectReverseBitwiseEqual(o, s, opts, ws);
  }
}

TEST(KernelEquivalenceTest, HandlesDanglingNodes) {
  // A chain into a dangling sink plus an isolated node: the dangling
  // branches of both kernels (whole-residual conversion forward, geometric
  // series reverse) must mirror the legacy engines bit for bit.
  HinGraph g;
  auto t = g.RegisterNodeType("n");
  auto e = g.RegisterEdgeType("to");
  NodeId a = g.AddNode(t), b = g.AddNode(t), sink = g.AddNode(t);
  NodeId isolated = g.AddNode(t);
  (void)isolated;
  ASSERT_TRUE(g.AddEdge(a, b, e, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(b, sink, e, 2.0).ok());
  PprOptions opts;
  PushWorkspace ws;
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    ExpectForwardBitwiseEqual(g, s, opts, ws);
    ExpectReverseBitwiseEqual(g, s, opts, ws);
  }
}

TEST(KernelEquivalenceTest, OutOfRangeSourceReturnsEmptyState) {
  test::BookGraph bg = test::MakeBookGraph();
  PushWorkspace ws;
  KernelResult kr = ForwardPushKernel(
      bg.g, static_cast<NodeId>(bg.g.NumNodes()), PprOptions{}, ws);
  EXPECT_EQ(kr.pushes, 0u);
  EXPECT_DOUBLE_EQ(kr.residual_mass, 0.0);
  EXPECT_TRUE(ws.touched().empty());
}

// ---------------------------------------------------------------------------
// Ground truth and invariants

TEST(KernelCorrectnessTest, ForwardKernelApproximatesPowerIteration) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  opts.epsilon = 1e-9;
  PushWorkspace ws;
  for (NodeId s : {bg.paul, bg.alice, bg.bob}) {
    ForwardPushKernel(bg.g, s, opts, ws);
    std::vector<double> truth = PowerIterationPpr(bg.g, s, opts);
    for (NodeId v = 0; v < bg.g.NumNodes(); ++v) {
      EXPECT_NEAR(ws.Estimate(v), truth[v], 1e-5)
          << "source " << s << " node " << v;
    }
  }
}

TEST(KernelCorrectnessTest, WorkspaceReusedStateSatisfiesInvariants) {
  // Eq. 3/4 on states read out of a workspace that served many prior
  // pushes: stale epochs must never leak into the exported state.
  Rng rng(11);
  test::RandomHin rh = test::MakeRandomHin(rng, 6, 25, 3, 4);
  PprOptions opts;
  PushWorkspace ws;
  for (int warm = 0; warm < 10; ++warm) {
    ForwardPushKernel(rh.g, rh.users[warm % rh.users.size()], opts, ws);
  }
  for (NodeId u : rh.users) {
    KernelResult kr = ForwardPushKernel(rh.g, u, opts, ws);
    PushResult state = ExportDensePush(ws, rh.g.NumNodes(), kr.residual_mass);
    EXPECT_TRUE(
        check::ValidateForwardPushInvariant(rh.g, u, state, opts).ok());
  }
  for (size_t i = 0; i < 4; ++i) {
    NodeId t = rh.items[i];
    KernelResult kr = ReversePushKernel(rh.g, t, opts, ws);
    PushResult state = ExportDensePush(ws, rh.g.NumNodes(), kr.residual_mass);
    EXPECT_TRUE(
        check::ValidateReversePushInvariant(rh.g, t, state, opts).ok());
  }
}

TEST(KernelCorrectnessTest, NoDenseResetsAfterWarmup) {
  Rng rng(3);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 40, 4, 6);
  PushWorkspace ws;
  ForwardPushKernel(rh.g, rh.users[0], PprOptions{}, ws);  // warm-up growth
  size_t resets_after_warmup = ws.stats().dense_resets;
  EXPECT_GE(resets_after_warmup, 1u);
  for (int i = 0; i < 50; ++i) {
    ForwardPushKernel(rh.g, rh.users[i % rh.users.size()], PprOptions{}, ws);
    ReversePushKernel(rh.g, rh.items[i % rh.items.size()], PprOptions{}, ws);
  }
  // The tentpole claim: zero O(n) clears once the arrays reached size.
  EXPECT_EQ(ws.stats().dense_resets, resets_after_warmup);
  EXPECT_EQ(ws.stats().begins, 1u + 100u);
  // And the sparse reset actually paid less than dense would have.
  EXPECT_LT(ws.stats().touched_total, 101u * rh.g.NumNodes());
}

// ---------------------------------------------------------------------------
// Dynamic push with workspace

TEST(KernelDynamicTest, SparseRefineMatchesLegacyRefine) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  HinGraph legacy_g = bg.g;
  HinGraph kernel_g = bg.g;
  PushWorkspace ws;
  DynamicForwardPush<HinGraph> legacy(legacy_g, bg.paul, opts);
  DynamicForwardPush<HinGraph> kernel(kernel_g, bg.paul, opts, &ws);
  EXPECT_EQ(legacy.Estimates(), kernel.Estimates());
  EXPECT_EQ(legacy.Residuals(), kernel.Residuals());

  auto edit_both = [&](auto&& fn) {
    legacy.BeforeOutEdgeChange(bg.paul);
    kernel.BeforeOutEdgeChange(bg.paul);
    fn(legacy_g);
    fn(kernel_g);
    legacy.AfterOutEdgeChange(bg.paul);
    kernel.AfterOutEdgeChange(bg.paul);
    // Bitwise: the sparse seed set reproduces the legacy scan's schedule.
    EXPECT_EQ(legacy.Estimates(), kernel.Estimates());
    EXPECT_EQ(legacy.Residuals(), kernel.Residuals());
    EXPECT_NEAR(legacy.AbsResidualMass(), kernel.AbsResidualMass(), 1e-12);
  };

  edit_both([&](HinGraph& g) {
    ASSERT_TRUE(g.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  });
  edit_both([&](HinGraph& g) {
    ASSERT_TRUE(g.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
  });
  edit_both([&](HinGraph& g) {
    ASSERT_TRUE(g.AddEdge(bg.paul, bg.candide, bg.rated, 1.0).ok());
  });
}

TEST(KernelDynamicTest, OverlayEditCycleKeepsInvariantAndConverges) {
  test::BookGraph bg = test::MakeBookGraph();
  CsrGraph csr(bg.g);
  CsrOverlay o(csr);
  PprOptions opts;
  PushWorkspace ws;
  DynamicForwardPush<CsrOverlay> dyn(o, bg.paul, opts, &ws);
  std::vector<double> initial = dyn.Estimates();

  for (int round = 0; round < 3; ++round) {
    dyn.BeforeOutEdgeChange(bg.paul);
    ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
    dyn.AfterOutEdgeChange(bg.paul);
    EXPECT_TRUE(
        check::ValidateForwardPushInvariant(o, bg.paul, dyn.State(), opts)
            .ok());
    dyn.BeforeOutEdgeChange(bg.paul);
    o.Clear();
    dyn.AfterOutEdgeChange(bg.paul);
    EXPECT_TRUE(
        check::ValidateForwardPushInvariant(o, bg.paul, dyn.State(), opts)
            .ok());
  }
  // After edit+revert cycles the estimates drift only within push tolerance.
  for (NodeId v = 0; v < csr.NumNodes(); ++v) {
    EXPECT_NEAR(dyn.Estimates()[v], initial[v], 1e-4);
  }
}

// ---------------------------------------------------------------------------
// Incremental residual mass (satellite: ResidualMass without the O(n) scan)

TEST(ResidualMassTest, MatchesScanOnPushResults) {
  Rng rng(23);
  test::RandomHin rh = test::MakeRandomHin(rng, 6, 20, 3, 5);
  PprOptions opts;
  for (NodeId u : rh.users) {
    PushResult fwd = ForwardPush(rh.g, u, opts);
    double scan = 0.0;
    for (double r : fwd.residual) scan += r;
    EXPECT_NEAR(fwd.ResidualMass(), scan, 1e-9);
  }
  for (size_t i = 0; i < 5; ++i) {
    PushResult rev = ReversePush(rh.g, rh.items[i], opts);
    double scan = 0.0;
    for (double r : rev.residual) scan += r;
    EXPECT_NEAR(rev.ResidualMass(), scan, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Cooperative deadlines (docs/robustness.md)

TEST(KernelDeadlineTest, ExpiredDeadlineUnwindsEveryEngine) {
  Rng rng(29);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 30, 3, 6);
  CsrGraph g(rh.g);
  PprOptions opts;
  Deadline deadline(1e-12);  // effectively already expired
  deadline.Start();
  opts.deadline = &deadline;
  PushWorkspace ws;
  EXPECT_THROW(ForwardPushKernel(g, rh.users[0], opts, ws),
               DeadlineExceededError);
  EXPECT_THROW(ReversePushKernel(g, rh.items[0], opts, ws),
               DeadlineExceededError);
  EXPECT_THROW(ForwardPush(rh.g, rh.users[0], opts), DeadlineExceededError);
  EXPECT_THROW(ReversePush(rh.g, rh.items[0], opts), DeadlineExceededError);
  EXPECT_THROW(PowerIterationPpr(rh.g, rh.users[0], opts),
               DeadlineExceededError);

  // The unwind mid-push leaves the workspace rebuildable: the next Begin
  // starts a fresh epoch, and a clean run on the survivor matches a cold
  // workspace bitwise.
  opts.deadline = nullptr;
  KernelResult kr = ForwardPushKernel(g, rh.users[0], opts, ws);
  PushResult survivor = ExportDensePush(ws, g.NumNodes(), kr.residual_mass);
  PushWorkspace cold;
  KernelResult ck = ForwardPushKernel(g, rh.users[0], opts, cold);
  PushResult fresh = ExportDensePush(cold, g.NumNodes(), ck.residual_mass);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(survivor.estimate[v], fresh.estimate[v]);
    EXPECT_EQ(survivor.residual[v], fresh.residual[v]);
  }
}

TEST(KernelDeadlineTest, UnexpiredAndAbsentDeadlinesChangeNothing) {
  Rng rng(29);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 30, 3, 6);
  CsrGraph g(rh.g);
  PprOptions plain;
  PushWorkspace ws_plain;
  KernelResult baseline = ForwardPushKernel(g, rh.users[1], plain, ws_plain);
  PushResult base_dense =
      ExportDensePush(ws_plain, g.NumNodes(), baseline.residual_mass);

  PprOptions guarded = plain;
  Deadline deadline(3600.0);  // generous: never expires within the test
  deadline.Start();
  guarded.deadline = &deadline;
  PushWorkspace ws_guarded;
  KernelResult kr = ForwardPushKernel(g, rh.users[1], guarded, ws_guarded);
  PushResult guarded_dense =
      ExportDensePush(ws_guarded, g.NumNodes(), kr.residual_mass);
  ASSERT_EQ(guarded_dense.estimate.size(), base_dense.estimate.size());
  for (size_t v = 0; v < base_dense.estimate.size(); ++v) {
    EXPECT_EQ(guarded_dense.estimate[v], base_dense.estimate[v]);
    EXPECT_EQ(guarded_dense.residual[v], base_dense.residual[v]);
  }
  EXPECT_EQ(kr.pushes, baseline.pushes);
}

}  // namespace
}  // namespace emigre::ppr
