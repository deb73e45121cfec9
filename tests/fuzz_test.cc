// Randomized stress tests: long operation sequences against invariants.
//
// These complement the per-module unit tests with "anything the API allows
// must keep the invariants" checks: graph mutation storms stay consistent,
// overlays always mirror an equivalently mutated copy, PPR stays a
// distribution, CSV round-trips arbitrary field content, graph I/O
// round-trips randomly generated graphs, the exact TEST agrees with an
// independent dense replay on every search-space candidate, and the
// certified top-1 agrees with the fully converged ranking.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "explain/search_space.h"
#include "explain/tester.h"
#include "graph/csr.h"
#include "graph/csr_overlay.h"
#include "graph/csr_snapshot.h"
#include "graph/hin_graph.h"
#include "graph/io.h"
#include "graph/overlay.h"
#include "graph/validate.h"
#include "obs/metrics.h"
#include "ppr/power_iteration.h"
#include "ppr/workspace.h"
#include "recsys/recommender.h"
#include "test_util.h"
#include "util/csv.h"
#include "util/rng.h"

namespace emigre {
namespace {

using graph::EdgeTypeId;
using graph::HinGraph;
using graph::NodeId;

TEST(GraphFuzzTest, MutationStormKeepsInvariants) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 5; ++trial) {
    HinGraph g;
    graph::NodeTypeId nt = g.RegisterNodeType("n");
    std::vector<EdgeTypeId> types = {g.RegisterEdgeType("a"),
                                     g.RegisterEdgeType("b"),
                                     g.RegisterEdgeType("c")};
    for (int i = 0; i < 12; ++i) g.AddNode(nt);

    for (int step = 0; step < 400; ++step) {
      NodeId src = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      NodeId dst = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      EdgeTypeId type = types[rng.NextBounded(types.size())];
      switch (rng.NextBounded(4)) {
        case 0:
          g.AddEdge(src, dst, type, rng.NextDouble(0.1, 5.0)).ok();
          break;
        case 1:
          g.RemoveEdge(src, dst, type).ok();
          break;
        case 2:
          g.RemoveEdgesBetween(src, dst);
          break;
        case 3:
          g.AddNode(nt);
          break;
      }
      if (step % 50 == 0) {
        ASSERT_TRUE(graph::ValidateGraph(g).ok()) << "step " << step;
      }
    }
    ASSERT_TRUE(graph::ValidateGraph(g).ok());

    // PPR on whatever came out is still a distribution from any seed with
    // out-edges (isolated seeds keep all mass at themselves).
    ppr::PprOptions opts;
    for (int probe = 0; probe < 3; ++probe) {
      NodeId seed = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      std::vector<double> p = ppr::PowerIterationPpr(g, seed, opts);
      double sum = 0.0;
      for (double x : p) {
        ASSERT_GE(x, -1e-12);
        sum += x;
      }
      EXPECT_NEAR(sum, 1.0, 1e-8);
    }
  }
}

TEST(GraphFuzzTest, OverlayWithSetWeightMatchesMutatedCopy) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 10; ++trial) {
    test::RandomHin rh = test::MakeRandomHin(rng, 4, 12, 2, 4);
    graph::GraphOverlay overlay(rh.g);
    HinGraph mutated = rh.g;

    for (int step = 0; step < 60; ++step) {
      NodeId src = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
      NodeId dst = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
      EdgeTypeId type = rng.NextBool() ? rh.rated : rh.belongs_to;
      double w = rng.NextDouble(0.1, 3.0);
      switch (rng.NextBounded(3)) {
        case 0: {
          Status a = overlay.AddEdge(src, dst, type, w);
          Status b = mutated.AddEdge(src, dst, type, w);
          // The overlay's un-remove restores the ORIGINAL weight; emulate
          // on the copy by checking both succeeded/failed only.
          ASSERT_EQ(a.ok(), b.ok());
          if (a.ok()) {
            // Align weights: force both to the overlay's effective weight.
            double effective = 0.0;
            overlay.ForEachOutEdge(src, [&](NodeId d, EdgeTypeId t,
                                            double ww) {
              if (d == dst && t == type) effective = ww;
            });
            mutated.RemoveEdge(src, dst, type).CheckOK();
            mutated.AddEdge(src, dst, type, effective).CheckOK();
          }
          break;
        }
        case 1: {
          Status a = overlay.RemoveEdge(src, dst, type);
          Status b = mutated.RemoveEdge(src, dst, type);
          ASSERT_EQ(a.ok(), b.ok());
          break;
        }
        case 2: {
          bool effective_has = overlay.HasEdge(src, dst, type);
          Status a = overlay.SetWeight(src, dst, type, w);
          ASSERT_EQ(a.ok(), effective_has) << a;
          if (a.ok()) {
            mutated.RemoveEdge(src, dst, type).CheckOK();
            mutated.AddEdge(src, dst, type, w).CheckOK();
          }
          break;
        }
      }
    }

    // Effective edge multisets must coincide.
    using Snapshot =
        std::map<std::tuple<NodeId, NodeId, EdgeTypeId>, double>;
    Snapshot from_overlay;
    Snapshot from_copy;
    for (NodeId n = 0; n < rh.g.NumNodes(); ++n) {
      overlay.ForEachOutEdge(n, [&](NodeId d, EdgeTypeId t, double w) {
        from_overlay[{n, d, t}] += w;
      });
      mutated.ForEachOutEdge(n, [&](NodeId d, EdgeTypeId t, double w) {
        from_copy[{n, d, t}] += w;
      });
    }
    ASSERT_EQ(from_overlay.size(), from_copy.size());
    for (const auto& [key, w] : from_overlay) {
      auto it = from_copy.find(key);
      ASSERT_NE(it, from_copy.end());
      EXPECT_NEAR(w, it->second, 1e-12);
    }
    for (NodeId n = 0; n < rh.g.NumNodes(); ++n) {
      EXPECT_NEAR(overlay.OutWeight(n), mutated.OutWeight(n), 1e-9);
      EXPECT_EQ(overlay.OutDegree(n), mutated.OutDegree(n));
    }
  }
}

TEST(CsvFuzzTest, ArbitraryFieldsRoundTrip) {
  Rng rng(0xCAFE);
  const std::string alphabet =
      "abcXYZ019 ,\"\n\r;|\t'~`!@#$%^&*(){}[]";
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<std::string>> rows;
    size_t num_rows = 1 + rng.NextBounded(8);
    size_t num_cols = 1 + rng.NextBounded(6);
    for (size_t r = 0; r < num_rows; ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < num_cols; ++c) {
        std::string field;
        size_t len = rng.NextBounded(12);
        for (size_t i = 0; i < len; ++i) {
          field += alphabet[rng.NextBounded(alphabet.size())];
        }
        row.push_back(std::move(field));
      }
      rows.push_back(std::move(row));
    }

    std::string path = test::MakeTempDir("csvfuzz") + "/t.csv";
    {
      CsvWriter w(path);
      for (const auto& row : rows) ASSERT_TRUE(w.WriteRow(row).ok());
      ASSERT_TRUE(w.Close().ok());
    }
    CsvReader r(path);
    std::vector<std::string> row;
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(r.ReadRow(&row)) << "row " << i;
      EXPECT_EQ(row, rows[i]) << "row " << i;
    }
    EXPECT_FALSE(r.ReadRow(&row));
  }
}

TEST(GraphIoFuzzTest, RandomGraphsRoundTrip) {
  Rng rng(0xD00D);
  for (int trial = 0; trial < 8; ++trial) {
    test::RandomHin rh = test::MakeRandomHin(rng, 1 + rng.NextBounded(6),
                                             5 + rng.NextBounded(20), 3, 5);
    std::string path = test::MakeTempDir("iofuzz") + "/g.graph";
    ASSERT_TRUE(graph::SaveGraph(rh.g, path).ok());
    Result<HinGraph> loaded = graph::LoadGraph(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_EQ(loaded->NumNodes(), rh.g.NumNodes());
    ASSERT_EQ(loaded->NumEdges(), rh.g.NumEdges());
    ASSERT_TRUE(graph::ValidateGraph(loaded.value()).ok());
    // PPR agreement is the strongest cheap equivalence check.
    if (rh.g.NumNodes() > 0) {
      NodeId seed = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
      std::vector<double> a =
          ppr::PowerIterationPpr(rh.g, seed, ppr::PprOptions{});
      std::vector<double> b =
          ppr::PowerIterationPpr(loaded.value(), seed, ppr::PprOptions{});
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i], b[i], 1e-12);
      }
    }
  }
}

// The exact TEST re-ranks on a CsrOverlay with the workspace kernels. Its
// independent oracle is the dense replay `check::ValidateExplanation` uses:
// a `BasicGraphOverlay` over the base graph plus the allocating
// `recsys::Recommend`. Every candidate of every question's Remove and Add
// search space — each action alone, plus the top three together — must get
// the same verdict and the same counterfactual top-1 from both.
template <typename G>
size_t ExpectTesterMatchesDenseReplay(const G& g, const test::RandomHin& rh,
                                      const explain::EmigreOptions& opts) {
  using explain::Mode;
  size_t compared = 0;
  for (size_t u = 0; u < 3 && u < rh.users.size(); ++u) {
    NodeId user = rh.users[u];
    recsys::RecommendationList ranking = recsys::RankItems(g, user, opts.rec);
    NodeId rec = ranking.Top();
    for (size_t rank = 1; rank < 4 && rank < ranking.size(); ++rank) {
      NodeId wni = ranking.at(rank).item;
      explain::ExplanationTesterT<G> tester(g, user, wni, opts);
      for (Mode mode : {Mode::kRemove, Mode::kAdd}) {
        auto space =
            mode == Mode::kRemove
                ? explain::BuildRemoveSearchSpace(g, user, rec, wni, opts)
                : explain::BuildAddSearchSpace(g, user, rec, wni, opts);
        EXPECT_TRUE(space.ok()) << space.status();
        if (!space.ok()) continue;
        std::vector<std::vector<graph::EdgeRef>> candidates;
        std::vector<graph::EdgeRef> top3;
        for (const explain::CandidateAction& a : space->actions) {
          candidates.push_back({a.edge});
          if (top3.size() < 3) top3.push_back(a.edge);
        }
        if (top3.size() > 1) candidates.push_back(top3);
        for (const std::vector<graph::EdgeRef>& edits : candidates) {
          graph::BasicGraphOverlay<G> overlay(g);
          bool applied = true;
          for (const graph::EdgeRef& e : edits) {
            Status st = mode == Mode::kAdd
                            ? overlay.AddEdge(e.src, e.dst, e.type,
                                              opts.add_edge_weight)
                            : overlay.RemoveEdge(e.src, e.dst, e.type);
            applied = applied && st.ok();
          }
          NodeId want = applied ? recsys::Recommend(overlay, user, opts.rec)
                                : graph::kInvalidNode;
          NodeId got = graph::kInvalidNode;
          bool verdict = tester.Test(edits, mode, &got);
          EXPECT_EQ(got, want) << "user " << user << " wni " << wni
                               << " mode " << static_cast<int>(mode)
                               << " edits " << edits.size();
          EXPECT_EQ(verdict, want == wni);
          ++compared;
        }
      }
    }
  }
  return compared;
}

TEST(TesterOracleFuzzTest, ExactTestMatchesDenseReplayOnHeapAndMmap) {
  Rng rng(0x7E57);
  std::string dir = test::MakeTempDir("tester_oracle");
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    test::RandomHin rh = test::MakeRandomHin(rng, 5, 16, 3, 4);
    explain::EmigreOptions opts = test::MakeRandomHinOptions(rh);
    EXPECT_GT(ExpectTesterMatchesDenseReplay(rh.g, rh, opts), 0u);

    std::string path = dir + "/g" + std::to_string(trial) + ".csr";
    ASSERT_TRUE(graph::WriteGraphSnapshot(rh.g, path).ok());
    auto view = graph::CsrSnapshotView::Load(path);
    ASSERT_TRUE(view.ok()) << view.status();
    EXPECT_GT(ExpectTesterMatchesDenseReplay(view.value(), rh, opts), 0u);
  }
}

// The certified top-1 (the workspace `recsys::Recommend`) stops power
// iteration once its leader is provably settled. Its oracle is the
// allocating `RankItems`, which always solves to tolerance. On random HINs,
// some with an item cloned into an exact twin of a user's top item, and
// under random CsrOverlay edit sets, both must name the same top-1 for
// every user, on heap and mmap CSR backings. Where the certificate fired,
// the stop is also checked against the bound itself, recomputed from the
// reference iterates: the gap must clear 2E + slack at the stopping sweep
// and not at the sweep before, so a looser or tighter bound fails here even
// when it happens to pick the same item.
struct CertifiedTopStats {
  size_t compared = 0;
  size_t certified = 0;
  size_t ties = 0;
};

/// (top-two gap, L1 change) after exactly `sweeps` reference sweeps.
std::pair<double, double> ReferenceGapAndDelta(
    const graph::CsrOverlay& o, NodeId user,
    const recsys::RecommenderOptions& opts, size_t sweeps) {
  recsys::RecommenderOptions capped = opts;
  capped.ppr.max_power_iterations = sweeps;
  recsys::RecommendationList list = recsys::RankItems(o, user, capped);
  std::vector<double> p = ppr::PowerIterationPpr(o, user, capped.ppr);
  capped.ppr.max_power_iterations = sweeps - 1;
  std::vector<double> prev = ppr::PowerIterationPpr(o, user, capped.ppr);
  double delta = 0.0;
  for (size_t i = 0; i < p.size(); ++i) delta += std::abs(p[i] - prev[i]);
  return {list.at(0).score - list.at(1).score, delta};
}

void ExpectCertifiedTopMatches(const graph::CsrGraph& csr,
                               const test::RandomHin& rh,
                               const recsys::RecommenderOptions& opts,
                               Rng& rng, ppr::PushWorkspace& ws,
                               CertifiedTopStats* stats) {
  obs::Counter& sweeps = obs::Registry::Global().GetCounter(
      "ppr.power.iterations");
  obs::Counter& certified = obs::Registry::Global().GetCounter(
      "ppr.power.certified");
  const double alpha = opts.ppr.alpha;
  graph::CsrOverlay overlay(csr);
  for (int edit_set = 0; edit_set < 4; ++edit_set) {
    overlay.Clear();
    // Edit set 0 is the base graph; the others remove random edges and add
    // random weighted ratings.
    for (int e = 0; e < edit_set * 3; ++e) {
      NodeId src = static_cast<NodeId>(rng.NextBounded(csr.NumNodes()));
      if (rng.NextBool()) {
        std::vector<std::pair<NodeId, EdgeTypeId>> row;
        overlay.ForEachOutEdge(src, [&](NodeId d, EdgeTypeId t, double) {
          row.emplace_back(d, t);
        });
        if (row.empty()) continue;
        auto [dst, type] = row[rng.NextBounded(row.size())];
        (void)overlay.RemoveEdge(src, dst, type);
      } else {
        NodeId user = rh.users[rng.NextBounded(rh.users.size())];
        NodeId item = rh.items[rng.NextBounded(rh.items.size())];
        (void)overlay.AddEdge(user, item, rh.rated, rng.NextDouble(0.2, 3.0));
      }
    }
    for (NodeId user : rh.users) {
      SCOPED_TRACE(testing::Message() << "edit set " << edit_set << " user "
                                      << user);
      recsys::RecommendationList reference =
          recsys::RankItems(overlay, user, opts);
      const uint64_t sweeps_before = sweeps.Value();
      const uint64_t certified_before = certified.Value();
      NodeId got = recsys::Recommend(overlay, user, opts, &ws);
      ASSERT_EQ(got, reference.Top());
      ++stats->compared;
      if (reference.size() >= 2 &&
          reference.at(0).score == reference.at(1).score) {
        ++stats->ties;
      }
      if (certified.Value() == certified_before) continue;
      ++stats->certified;
      const size_t stop = sweeps.Value() - sweeps_before;
      ASSERT_GE(stop, 1u);
      auto [gap, delta] = ReferenceGapAndDelta(overlay, user, opts, stop);
      EXPECT_GT(gap, 2.0 * (1.0 - alpha) / alpha * delta +
                         recsys::kTop1CertificateSlack)
          << "certified at sweep " << stop << " without the bound";
      if (stop >= 2) {
        auto [prev_gap, prev_delta] =
            ReferenceGapAndDelta(overlay, user, opts, stop - 1);
        EXPECT_LE(prev_gap, 2.0 * (1.0 - alpha) / alpha * prev_delta +
                                recsys::kTop1CertificateSlack)
            << "the bound already held at sweep " << stop - 1;
      }
    }
  }
}

/// Adds a twin of `item`: a new item node with the same in- and out-edges
/// (same types and weights), so the two score exactly alike.
void AddTwin(test::RandomHin* rh, NodeId item) {
  HinGraph& g = rh->g;
  NodeId twin = g.AddNode(rh->item_type);
  std::vector<graph::Edge> out(g.OutEdges(item).begin(),
                               g.OutEdges(item).end());
  std::vector<graph::Edge> in(g.InEdges(item).begin(), g.InEdges(item).end());
  for (const graph::Edge& e : out) {
    g.AddEdge(twin, e.node, e.type, e.weight).CheckOK();
  }
  for (const graph::Edge& e : in) {
    g.AddEdge(e.node, twin, e.type, e.weight).CheckOK();
  }
  rh->items.push_back(twin);
}

TEST(CertifiedTopFuzzTest, CertifiedTopMatchesReference) {
  Rng rng(0x70B1);
  std::string dir = test::MakeTempDir("certified_top");
  CertifiedTopStats stats;
  ppr::PushWorkspace ws;  // one workspace across every graph and backing
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    test::RandomHin rh = test::MakeRandomHin(rng, 6, 18, 3, 4);
    recsys::RecommenderOptions opts = test::MakeRandomHinOptions(rh).rec;
    if (trial % 2 == 1) {
      // Force exact ties at the top: clone two users' current top items.
      for (size_t u = 0; u < 2; ++u) {
        NodeId top = recsys::Recommend(rh.g, rh.users[u], opts);
        if (top != graph::kInvalidNode) AddTwin(&rh, top);
      }
    }
    // Both backings see the same edit sets.
    graph::CsrGraph heap(rh.g);
    Rng heap_rng = rng;
    ExpectCertifiedTopMatches(heap, rh, opts, heap_rng, ws, &stats);

    std::string path = dir + "/g" + std::to_string(trial) + ".csr";
    ASSERT_TRUE(graph::WriteGraphSnapshot(rh.g, path).ok());
    auto view = graph::CsrSnapshotView::Load(path);
    ASSERT_TRUE(view.ok()) << view.status();
    ExpectCertifiedTopMatches(view->csr(), rh, opts, rng, ws, &stats);
  }
  // The sweep exercised both outcomes: certified stops and exact ties that
  // had to run to tolerance.
  EXPECT_GT(stats.certified, stats.compared / 4);
  EXPECT_GT(stats.ties, 0u);
}

}  // namespace
}  // namespace emigre
