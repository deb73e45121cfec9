#include "graph/csr_overlay.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "graph/csr.h"
#include "graph/overlay.h"
#include "graph/traits.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::graph {
namespace {

static_assert(GraphLike<CsrOverlay>);

using Snapshot = std::map<std::tuple<NodeId, NodeId, EdgeTypeId>, double>;

template <typename G>
Snapshot SnapshotOutEdges(const G& g) {
  Snapshot snap;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    g.ForEachOutEdge(n, [&](NodeId dst, EdgeTypeId t, double w) {
      snap[{n, dst, t}] += w;
    });
  }
  return snap;
}

template <typename G>
Snapshot SnapshotInEdges(const G& g) {
  Snapshot snap;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    g.ForEachInEdge(n, [&](NodeId src, EdgeTypeId t, double w) {
      snap[{src, n, t}] += w;
    });
  }
  return snap;
}

TEST(CsrOverlayTest, TransparentWithoutEdits) {
  test::BookGraph bg = test::MakeBookGraph();
  CsrGraph csr(bg.g);
  CsrOverlay o(csr);
  EXPECT_FALSE(o.HasEdits());
  EXPECT_EQ(SnapshotOutEdges(o), SnapshotOutEdges(bg.g));
  EXPECT_EQ(SnapshotInEdges(o), SnapshotInEdges(bg.g));
  for (NodeId n = 0; n < bg.g.NumNodes(); ++n) {
    EXPECT_DOUBLE_EQ(o.OutWeight(n), bg.g.OutWeight(n));
    EXPECT_EQ(o.OutDegree(n), bg.g.OutDegree(n));
    EXPECT_EQ(o.InDegree(n), bg.g.InDegree(n));
    EXPECT_EQ(o.NodeType(n), bg.g.NodeType(n));
  }
}

TEST(CsrOverlayTest, MatchesGraphOverlaySemantics) {
  // The same edit sequence applied to a GraphOverlay (over the HinGraph)
  // and a CsrOverlay (over the CSR snapshot) must produce identical
  // effective graphs AND identical Status outcomes — including the error
  // cases (duplicate add, double removal, missing SetWeight target).
  test::BookGraph bg = test::MakeBookGraph();
  CsrGraph csr(bg.g);
  GraphOverlay ref(bg.g);
  CsrOverlay o(csr);

  struct Op {
    int kind;  // 0 = add, 1 = remove, 2 = set-weight
    NodeId src, dst;
    EdgeTypeId type;
    double weight;
  };
  std::vector<Op> ops = {
      {1, bg.paul, bg.candide, bg.rated, 0.0},     // remove base edge
      {1, bg.paul, bg.candide, bg.rated, 0.0},     // double removal -> error
      {0, bg.paul, bg.candide, bg.rated, 2.5},     // un-remove w/ new weight
      {0, bg.paul, bg.lotr, bg.rated, 1.0},        // fresh addition
      {0, bg.paul, bg.lotr, bg.rated, 1.0},        // duplicate add -> error
      {1, bg.paul, bg.lotr, bg.rated, 0.0},        // undo the addition
      {0, bg.alice, bg.c_lang, bg.rated, 3.0},     // addition that stays
      {2, bg.alice, bg.c_lang, bg.rated, 0.5},     // re-weight added edge
      {2, bg.bob, bg.python, bg.rated, 4.0},       // re-weight base edge
      {2, bg.paul, bg.lotr, bg.rated, 9.0},        // absent edge -> error
      {1, bg.bob, bg.python, bg.rated, 0.0},       // remove re-weighted edge
  };
  for (const Op& op : ops) {
    Status ref_st, csr_st;
    if (op.kind == 0) {
      ref_st = ref.AddEdge(op.src, op.dst, op.type, op.weight);
      csr_st = o.AddEdge(op.src, op.dst, op.type, op.weight);
    } else if (op.kind == 1) {
      ref_st = ref.RemoveEdge(op.src, op.dst, op.type);
      csr_st = o.RemoveEdge(op.src, op.dst, op.type);
    } else {
      ref_st = ref.SetWeight(op.src, op.dst, op.type, op.weight);
      csr_st = o.SetWeight(op.src, op.dst, op.type, op.weight);
    }
    EXPECT_EQ(ref_st.code(), csr_st.code())
        << "op kind " << op.kind << " " << op.src << "->" << op.dst;
    EXPECT_EQ(SnapshotOutEdges(ref), SnapshotOutEdges(o));
    EXPECT_EQ(SnapshotInEdges(ref), SnapshotInEdges(o));
    for (NodeId n = 0; n < bg.g.NumNodes(); ++n) {
      EXPECT_DOUBLE_EQ(ref.OutWeight(n), o.OutWeight(n)) << "node " << n;
      EXPECT_EQ(ref.OutDegree(n), o.OutDegree(n)) << "node " << n;
      EXPECT_EQ(ref.InDegree(n), o.InDegree(n)) << "node " << n;
    }
    EXPECT_EQ(ref.NumAdded(), o.NumAdded());
    EXPECT_EQ(ref.NumRemoved(), o.NumRemoved());
    EXPECT_EQ(ref.AddedEdges(), o.AddedEdges());
    EXPECT_EQ(ref.RemovedEdges(), o.RemovedEdges());
  }
}

// Every node's out- (or in-) edges in traversal order.
using Trail = std::vector<std::tuple<NodeId, EdgeTypeId, double>>;

template <typename G>
std::vector<Trail> OutTrails(const G& g) {
  std::vector<Trail> trails(g.NumNodes());
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    g.ForEachOutEdge(n, [&](NodeId dst, EdgeTypeId t, double w) {
      trails[n].emplace_back(dst, t, w);
    });
  }
  return trails;
}

template <typename G>
std::vector<Trail> InTrails(const G& g) {
  std::vector<Trail> trails(g.NumNodes());
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    g.ForEachInEdge(n, [&](NodeId src, EdgeTypeId t, double w) {
      trails[n].emplace_back(src, t, w);
    });
  }
  return trails;
}

// The CsrOverlay's whole effective graph, node by node, against the
// GraphOverlay reference: traversal order included, since the bitwise
// kernel equivalences rest on it.
void ExpectSameEffectiveGraph(const GraphOverlay& ref, const CsrOverlay& o) {
  ASSERT_EQ(OutTrails(ref), OutTrails(o));
  ASSERT_EQ(InTrails(ref), InTrails(o));
  for (NodeId n = 0; n < ref.NumNodes(); ++n) {
    ASSERT_DOUBLE_EQ(ref.OutWeight(n), o.OutWeight(n)) << "node " << n;
    ASSERT_EQ(ref.OutDegree(n), o.OutDegree(n)) << "node " << n;
    ASSERT_EQ(ref.InDegree(n), o.InDegree(n)) << "node " << n;
  }
  ASSERT_EQ(ref.NumAdded(), o.NumAdded());
  ASSERT_EQ(ref.NumRemoved(), o.NumRemoved());
  ASSERT_EQ(ref.AddedEdges(), o.AddedEdges());
  ASSERT_EQ(ref.RemovedEdges(), o.RemovedEdges());
}

TEST(CsrOverlayTest, MatchesGraphOverlayOnRandomEditSequences) {
  // Differential check of the touched-node index: after EVERY step of a
  // random edit sequence, the CsrOverlay must read exactly like a
  // GraphOverlay replaying the same edits. The sequence mixes successful
  // edits (fresh add, base removal, un-remove, undoing an addition,
  // re-weighting base and added edges) with failed ones (duplicate add,
  // double removal, missing SetWeight target, out-of-range ids) and
  // Clear(), which a fresh reference mirrors.
  Rng rng(99);
  // [case][ok]: how often each step kind succeeded and failed, so the
  // sequence provably reaches the paths listed above.
  int outcomes[10][2] = {};
  for (int round = 0; round < 6; ++round) {
    test::RandomHin rh = test::MakeRandomHin(rng, 6, 20, 3, 5);
    const size_t n = rh.g.NumNodes();
    std::vector<EdgeRef> base_edges;
    for (NodeId src = 0; src < n; ++src) {
      rh.g.ForEachOutEdge(src, [&](NodeId dst, EdgeTypeId t, double) {
        base_edges.push_back(EdgeRef{src, dst, t});
      });
    }
    ASSERT_FALSE(base_edges.empty());
    CsrGraph csr(rh.g);
    auto ref = std::make_unique<GraphOverlay>(rh.g);
    CsrOverlay o(csr);
    auto random_node = [&] {
      return static_cast<NodeId>(rng.NextBounded(n));
    };
    auto random_type = [&] {
      return static_cast<EdgeTypeId>(rng.NextBounded(rh.g.NumEdgeTypes()));
    };
    for (int step = 0; step < 200; ++step) {
      SCOPED_TRACE(testing::Message() << "round " << round << " step "
                                      << step);
      const double weight = 0.5 + static_cast<double>(rng.NextBounded(4));
      EdgeRef e{random_node(), random_node(), random_type()};
      Status ref_st, csr_st;
      const uint64_t which = rng.NextBounded(10);
      switch (which) {
        case 0:  // Clear, mirrored by a fresh reference.
          o.Clear();
          ref = std::make_unique<GraphOverlay>(rh.g);
          ASSERT_FALSE(o.HasEdits());
          break;
        case 1:  // Random add: a fresh edge, or a duplicate.
          ref_st = ref->AddEdge(e.src, e.dst, e.type, weight);
          csr_st = o.AddEdge(e.src, e.dst, e.type, weight);
          break;
        case 2: {  // Add a base edge: duplicate add, or un-remove.
          std::vector<EdgeRef> removed = ref->RemovedEdges();
          e = !removed.empty() && rng.NextBool()
                  ? removed[rng.NextBounded(removed.size())]
                  : base_edges[rng.NextBounded(base_edges.size())];
          ref_st = ref->AddEdge(e.src, e.dst, e.type, weight);
          csr_st = o.AddEdge(e.src, e.dst, e.type, weight);
          break;
        }
        case 3:  // Remove a base edge: masks it, or a double removal.
          e = base_edges[rng.NextBounded(base_edges.size())];
          ref_st = ref->RemoveEdge(e.src, e.dst, e.type);
          csr_st = o.RemoveEdge(e.src, e.dst, e.type);
          break;
        case 4:  // Random removal: mostly a missing target.
          ref_st = ref->RemoveEdge(e.src, e.dst, e.type);
          csr_st = o.RemoveEdge(e.src, e.dst, e.type);
          break;
        case 5:  // Re-weight a base edge (NotFound once it is removed).
          e = base_edges[rng.NextBounded(base_edges.size())];
          ref_st = ref->SetWeight(e.src, e.dst, e.type, weight);
          csr_st = o.SetWeight(e.src, e.dst, e.type, weight);
          break;
        case 6:    // Re-weight, or
        case 7: {  // undo, an overlay-added edge.
          std::vector<EdgeRef> added = ref->AddedEdges();
          if (!added.empty()) e = added[rng.NextBounded(added.size())];
          if (rng.NextBool()) {
            ref_st = ref->SetWeight(e.src, e.dst, e.type, weight);
            csr_st = o.SetWeight(e.src, e.dst, e.type, weight);
          } else {
            ref_st = ref->RemoveEdge(e.src, e.dst, e.type);
            csr_st = o.RemoveEdge(e.src, e.dst, e.type);
          }
          break;
        }
        case 8:  // Random re-weight: mostly a missing target.
          ref_st = ref->SetWeight(e.src, e.dst, e.type, weight);
          csr_st = o.SetWeight(e.src, e.dst, e.type, weight);
          break;
        default: {  // Out-of-range src or dst, any edit kind.
          const NodeId bad = static_cast<NodeId>(n + rng.NextBounded(3));
          (rng.NextBool() ? e.src : e.dst) = bad;
          const uint64_t kind = rng.NextBounded(3);
          if (kind == 0) {
            ref_st = ref->AddEdge(e.src, e.dst, e.type, weight);
            csr_st = o.AddEdge(e.src, e.dst, e.type, weight);
          } else if (kind == 1) {
            ref_st = ref->RemoveEdge(e.src, e.dst, e.type);
            csr_st = o.RemoveEdge(e.src, e.dst, e.type);
          } else {
            ref_st = ref->SetWeight(e.src, e.dst, e.type, weight);
            csr_st = o.SetWeight(e.src, e.dst, e.type, weight);
          }
          ASSERT_EQ(csr_st.code(), StatusCode::kInvalidArgument);
          break;
        }
      }
      ASSERT_EQ(ref_st.code(), csr_st.code()) << csr_st.ToString();
      ++outcomes[which][csr_st.ok() ? 1 : 0];
      ASSERT_NO_FATAL_FAILURE(ExpectSameEffectiveGraph(*ref, o));
    }
  }
  EXPECT_GT(outcomes[0][1], 0);  // Clear
  EXPECT_GT(outcomes[1][1], 0);  // fresh add
  EXPECT_GT(outcomes[2][0], 0);  // duplicate add of a base edge
  EXPECT_GT(outcomes[2][1], 0);  // un-remove
  EXPECT_GT(outcomes[3][0], 0);  // double removal
  EXPECT_GT(outcomes[3][1], 0);  // base removal
  EXPECT_GT(outcomes[5][1], 0);  // base re-weight
  EXPECT_GT(outcomes[6][1] + outcomes[7][1], 0);  // added edge edited
  EXPECT_GT(outcomes[8][0], 0);  // missing SetWeight target
  EXPECT_GT(outcomes[9][0], 0);  // out of range
}

TEST(CsrOverlayTest, ClearRestoresBaseAndAdjacencyOrder) {
  test::BookGraph bg = test::MakeBookGraph();
  CsrGraph csr(bg.g);
  CsrOverlay o(csr);

  auto order_of = [&](NodeId n) {
    std::vector<NodeId> order;
    o.ForEachOutEdge(n, [&](NodeId dst, EdgeTypeId, double) {
      order.push_back(dst);
    });
    return order;
  };
  std::vector<NodeId> before = order_of(bg.paul);

  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
  EXPECT_TRUE(o.HasEdits());
  o.Clear();
  EXPECT_FALSE(o.HasEdits());
  EXPECT_EQ(o.NumAdded(), 0u);
  EXPECT_EQ(o.NumRemoved(), 0u);
  EXPECT_EQ(SnapshotOutEdges(o), SnapshotOutEdges(bg.g));
  // The property the fast tester's bitwise determinism rests on: after
  // Clear, edges come back in the ORIGINAL order (a mutated HinGraph would
  // have moved the re-added edge to the end of the adjacency list).
  EXPECT_EQ(order_of(bg.paul), before);
}

TEST(CsrOverlayTest, HasEdgeReflectsEdits) {
  test::BookGraph bg = test::MakeBookGraph();
  CsrGraph csr(bg.g);
  CsrOverlay o(csr);
  EXPECT_TRUE(o.HasEdge(bg.paul, bg.candide));
  EXPECT_TRUE(o.HasEdge(bg.paul, bg.candide, bg.rated));
  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  EXPECT_FALSE(o.HasEdge(bg.paul, bg.candide));
  EXPECT_FALSE(o.HasEdge(bg.paul, bg.candide, bg.rated));
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
  EXPECT_TRUE(o.HasEdge(bg.paul, bg.lotr, bg.rated));
  EXPECT_FALSE(csr.HasEdge(bg.paul, bg.lotr));  // base untouched
}

}  // namespace
}  // namespace emigre::graph
