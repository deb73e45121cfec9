// Workspace push kernels vs the dense reference engines: the perf claim
// behind the workspace layer (docs/performance.md), measured and ASSERTED.
// "legacy" in row and metric names is the dense reference: `ForwardPush`,
// `ReversePush` and the no-workspace `DynamicForwardPush` refine, which no
// option selects any more but which the kernels must reproduce.
//
// Two workloads on a medium synthetic Amazon graph:
//   static  — full pushes (forward from users, reverse toward items) at a
//             sweep of epsilons; the kernel replays the reference schedule
//             on epoch-stamped sparse state instead of freshly zeroed
//             arrays. Informational: these pushes saturate the graph
//             (touched ≈ n), so the kernel has no O(n) reset to save and
//             these rows may run below 1.0x; the report says so.
//   repair  — the candidate-TEST cycle the explain pipeline actually runs:
//             remove / re-add a user edge and repair the dynamic push state,
//             swept over epsilons. The reference refine pays an O(n) seed
//             scan plus a dense queued array PER CANDIDATE; the sparse
//             refine seeds from the repaired row only, so where repairs are
//             local it must win outright.
//   top1    — the exact TEST's question, "which item is top-1?", for every
//             evaluation user: the certified workspace `recsys::Recommend`,
//             which stops power iteration once the winner is provably
//             settled, against the allocating `Recommend` (a full
//             `PowerIterationPpr` plus the ranking). "legacy" is the full
//             solve, "kernel" the certified one, "work" its sweeps.
//   overlay — the exact TEST's graph: the same certified top-1 for every
//             evaluation user, read through a `CsrOverlay` that removes the
//             user's first two allowed out-edges ("kernel"), against those
//             edits materialised into a `CsrGraph` ("legacy"). Its speedup
//             is what the overlay's edit bookkeeping costs on top of the
//             PPR work it wraps; 1.0 means none. "work" is the sweeps.
//
// The guarantees are checked, not just reported — any violation exits 1:
//   1. Bitwise equality: kernel estimates and residuals equal the dense
//      reference's bit for bit on every workload (same schedule, same
//      float-op order), static pushes and dynamic repairs alike.
//   2. Zero O(n) work after warm-up: no dense reset once the workspace
//      reached graph size, and the touched-node counter stays far below
//      begins * n.
//   3. The kernel path is strictly faster on the local-repair rows and their
//      aggregate (the per-candidate O(n) this layer deletes), and within
//      noise of the reference on the push-bound repair rows.
//   4. The certified top-1 names the same item as the full solve for every
//      user. (Its speedup is held >= 1.0 by a perfgate floor.)
//   5. The overlay and its materialised graph give the same top-1 after the
//      same number of sweeps for every user. (The overlay's speedup is
//      held by a perfgate floor.)

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "graph/csr.h"
#include "graph/csr_overlay.h"
#include "obs/metrics.h"
#include "ppr/dynamic.h"
#include "ppr/forward_push.h"
#include "ppr/kernels.h"
#include "ppr/options.h"
#include "ppr/reverse_push.h"
#include "ppr/workspace.h"
#include "recsys/recommender.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace emigre;

struct SweepRow {
  std::string label;
  double legacy_seconds = 0.0;
  double kernel_seconds = 0.0;
  size_t work = 0;  ///< pushes (static rows) or repairs (repair row)

  double Speedup() const {
    return kernel_seconds > 0.0 ? legacy_seconds / kernel_seconds : 1.0;
  }
};

bool BitwiseEqual(const ppr::PushResult& a, const ppr::PushResult& b) {
  return a.estimate == b.estimate && a.residual == b.residual;
}

}  // namespace

int main() {
  bench::BenchConfig config = bench::MakeBenchConfig();
  // A medium graph regardless of scale: the kernels' O(k)-vs-O(n) claim is
  // about per-push locality (touched nodes k well below |V|), which a
  // few-hundred-node smoke graph cannot exhibit. Generation stays fast;
  // only rep counts scale.
  if (config.scale == 0) {
    config.gen.num_users = 250;
    config.gen.num_items = 12000;
    config.gen.num_categories = 64;
  } else {
    config.gen.num_users = 400;
    config.gen.num_items = 24000;
    config.gen.num_categories = 96;
  }
  bench::PrintBenchHeader("workspace push kernels vs dense reference",
                          config);

  auto lite = bench::BuildBenchGraph(config);
  lite.status().CheckOK();
  const graph::HinGraph& g = lite->graph;
  const size_t n = g.NumNodes();

  // Sampled endpoints: the evaluation users as forward sources, a stride of
  // the item nodes as reverse targets.
  std::vector<graph::NodeId> sources = lite->eval_users;
  if (sources.size() > 8) sources.resize(8);
  std::vector<graph::NodeId> items = g.NodesOfType(lite->item_type);
  std::vector<graph::NodeId> targets;
  for (size_t i = 0; i < items.size() && targets.size() < 8;
       i += std::max<size_t>(1, items.size() / 8)) {
    targets.push_back(items[i]);
  }

  const std::vector<double> epsilons = {1e-4, 1e-5, 1e-6};
  const size_t reps = config.scale == 0 ? 2 : 6;
  // Interleaved best-of-N: each workload is raced `rounds` times per engine
  // and the minimum is kept, filtering scheduler noise out of the CI
  // assertion.
  const size_t rounds = 3;
  bool ok = true;

  ppr::PushWorkspace ws;
  ppr::PprOptions base_ppr;

  // Correctness pass (also warms the workspace up to graph size): every
  // swept (epsilon, endpoint) must match the dense reference bit for bit.
  for (double eps : epsilons) {
    ppr::PprOptions opts = base_ppr;
    opts.epsilon = eps;
    for (graph::NodeId s : sources) {
      ppr::KernelResult kr = ppr::ForwardPushKernel(g, s, opts, ws);
      if (!BitwiseEqual(ppr::ExportDensePush(ws, n, kr.residual_mass),
                        ppr::ForwardPush(g, s, opts))) {
        std::fprintf(stderr,
                     "EQUIVALENCE VIOLATION: forward kernel != reference "
                     "(source %u, eps %g)\n", s, eps);
        ok = false;
      }
    }
    for (graph::NodeId t : targets) {
      ppr::KernelResult kr = ppr::ReversePushKernel(g, t, opts, ws);
      if (!BitwiseEqual(ppr::ExportDensePush(ws, n, kr.residual_mass),
                        ppr::ReversePush(g, t, opts))) {
        std::fprintf(stderr,
                     "EQUIVALENCE VIOLATION: reverse kernel != reference "
                     "(target %u, eps %g)\n", t, eps);
        ok = false;
      }
    }
  }

  // Timed sweeps. The workspace is warm: from here on a single dense reset
  // or a touched count anywhere near begins * n is a regression.
  const size_t resets_after_warmup = ws.stats().dense_resets;
  const size_t begins_before = ws.stats().begins;
  const size_t touched_before = ws.stats().touched_total;

  std::vector<SweepRow> rows;
  double legacy_total = 0.0, kernel_total = 0.0;
  for (double eps : epsilons) {
    ppr::PprOptions opts = base_ppr;
    opts.epsilon = eps;

    SweepRow fwd{StrFormat("forward eps=%g", eps)};
    SweepRow rev{StrFormat("reverse eps=%g", eps)};
    WallTimer timer;
    for (size_t round = 0; round < rounds; ++round) {
      timer.Reset();
      for (size_t r = 0; r < reps; ++r) {
        for (graph::NodeId s : sources) ppr::ForwardPush(g, s, opts);
      }
      fwd.legacy_seconds = round == 0
                               ? timer.ElapsedSeconds()
                               : std::min(fwd.legacy_seconds,
                                          timer.ElapsedSeconds());
      timer.Reset();
      for (size_t r = 0; r < reps; ++r) {
        for (graph::NodeId s : sources) {
          size_t pushes = ppr::ForwardPushKernel(g, s, opts, ws).pushes;
          if (round == 0) fwd.work += pushes;
        }
      }
      fwd.kernel_seconds = round == 0
                               ? timer.ElapsedSeconds()
                               : std::min(fwd.kernel_seconds,
                                          timer.ElapsedSeconds());
      timer.Reset();
      for (size_t r = 0; r < reps; ++r) {
        for (graph::NodeId t : targets) ppr::ReversePush(g, t, opts);
      }
      rev.legacy_seconds = round == 0
                               ? timer.ElapsedSeconds()
                               : std::min(rev.legacy_seconds,
                                          timer.ElapsedSeconds());
      timer.Reset();
      for (size_t r = 0; r < reps; ++r) {
        for (graph::NodeId t : targets) {
          size_t pushes = ppr::ReversePushKernel(g, t, opts, ws).pushes;
          if (round == 0) rev.work += pushes;
        }
      }
      rev.kernel_seconds = round == 0
                               ? timer.ElapsedSeconds()
                               : std::min(rev.kernel_seconds,
                                          timer.ElapsedSeconds());
    }

    legacy_total += fwd.legacy_seconds + rev.legacy_seconds;
    kernel_total += fwd.kernel_seconds + rev.kernel_seconds;
    rows.push_back(fwd);
    rows.push_back(rev);
  }

  // The candidate-TEST repair cycle, on separate mutable copies so both
  // paths see identical adjacency orders (HinGraph re-adds append).
  //
  // Swept over epsilons because the paths differ in the O(n) part, not the
  // push part. At moderate epsilon a repair is LOCAL — a handful of pushes —
  // so the reference refine's O(n) seed scan and per-repair dense `queued`
  // allocation dominate its cost, and the sparse refine (seeded from the
  // repaired row on the reusable ring) must win outright. Those rows carry
  // the strict perf assertion; this is exactly the per-candidate O(n) the
  // kernel layer deletes. At the tight eval epsilon the repair is
  // re-push-bound (both paths execute the bitwise-identical schedule), so
  // that row is context only, guarded against gross regression.
  double repair_legacy_asserted = 0.0, repair_kernel_asserted = 0.0;
  {
    // Rows 1e-4/1e-5 are the local-repair regime (strict assertion); tighter
    // rows are push-bound on graphs this size and only noise-guarded.
    std::vector<double> repair_eps = {1e-4, 1e-5, 1e-6};
    if (std::find(repair_eps.begin(), repair_eps.end(), config.epsilon) ==
        repair_eps.end()) {
      repair_eps.push_back(config.epsilon);
    }
    const size_t num_dyn_sources = std::min<size_t>(3, sources.size());
    for (double eps : repair_eps) {
      const bool asserted = eps >= 1e-5;
      const size_t repair_reps = config.scale == 0 ? (asserted ? 12 : 1)
                                                   : (asserted ? 24 : 2);
      ppr::PprOptions opts = base_ppr;
      opts.epsilon = eps;

      SweepRow rep{StrFormat("repair eps=%g", eps)};
      // Final (estimate, residual) states per source, per path.
      std::vector<ppr::PushResult> final_states[2];
      for (size_t round = 0; round < rounds; ++round) {
        for (int path = 0; path < 2; ++path) {
          const bool kernel = path == 1;
          graph::HinGraph mg = g;
          WallTimer timer;
          double seconds = 0.0;
          for (size_t si = 0; si < num_dyn_sources; ++si) {
            graph::NodeId u = sources[si];
            // Snapshot the out-edges to cycle; each remove is paired with a
            // re-add, so the graph returns to (an append-permuted copy of)
            // the base row after every cycle.
            auto row_view = mg.OutEdges(u);
            std::vector<graph::Edge> row(row_view.begin(), row_view.end());
            if (row.size() > 8) row.resize(8);
            timer.Reset();
            ppr::DynamicForwardPush<graph::HinGraph> dyn(
                mg, u, opts, kernel ? &ws : nullptr);
            for (size_t r = 0; r < repair_reps; ++r) {
              for (const graph::Edge& e : row) {
                dyn.BeforeOutEdgeChange(u);
                mg.RemoveEdge(u, e.node, e.type).CheckOK();
                dyn.AfterOutEdgeChange(u);
                dyn.BeforeOutEdgeChange(u);
                mg.AddEdge(u, e.node, e.type, e.weight).CheckOK();
                dyn.AfterOutEdgeChange(u);
                if (kernel && round == 0) rep.work += 2;
              }
            }
            seconds += timer.ElapsedSeconds();
            if (round == 0) final_states[path].push_back(dyn.State());
          }
          double& best = kernel ? rep.kernel_seconds : rep.legacy_seconds;
          best = round == 0 ? seconds : std::min(best, seconds);
        }
      }
      for (size_t si = 0; si < final_states[0].size(); ++si) {
        if (!BitwiseEqual(final_states[0][si], final_states[1][si])) {
          std::fprintf(stderr,
                       "EQUIVALENCE VIOLATION: sparse repair state != "
                       "reference refine (source %u, eps %g)\n",
                       sources[si], eps);
          ok = false;
        }
      }
      if (asserted) {
        repair_legacy_asserted += rep.legacy_seconds;
        repair_kernel_asserted += rep.kernel_seconds;
        if (rep.kernel_seconds >= rep.legacy_seconds) {
          std::fprintf(stderr,
                       "PERF VIOLATION: sparse repair (%.4fs) not faster "
                       "than the reference O(n) refine (%.4fs) at eps %g\n",
                       rep.kernel_seconds, rep.legacy_seconds, eps);
          ok = false;
        }
      } else if (rep.kernel_seconds > rep.legacy_seconds * 1.25) {
        // Push-bound row: identical schedules, so anything beyond noise is
        // kernel bookkeeping overhead creeping into the per-edge path.
        std::fprintf(stderr,
                     "PERF VIOLATION: push-bound repair regressed beyond "
                     "noise (kernel %.4fs vs reference %.4fs at eps %g)\n",
                     rep.kernel_seconds, rep.legacy_seconds, eps);
        ok = false;
      }
      legacy_total += rep.legacy_seconds;
      kernel_total += rep.kernel_seconds;
      rows.push_back(rep);
    }
  }

  // Certified top-1 vs the full solve, best-of-`rounds` like the rows
  // above. Not part of the push totals: it measures power iteration.
  {
    recsys::RecommenderOptions rec_opts;
    rec_opts.item_type = lite->item_type;
    ppr::PushWorkspace top1_ws;
    const obs::Counter& sweeps =
        obs::Registry::Global().GetCounter("ppr.power.iterations");
    SweepRow top1{"top1"};
    size_t reference_sweeps = 0;
    WallTimer timer;
    for (size_t round = 0; round < rounds; ++round) {
      std::vector<graph::NodeId> full, certified;
      uint64_t before = sweeps.Value();
      timer.Reset();
      for (graph::NodeId u : lite->eval_users) {
        full.push_back(recsys::Recommend(g, u, rec_opts));
      }
      double seconds = timer.ElapsedSeconds();
      top1.legacy_seconds =
          round == 0 ? seconds : std::min(top1.legacy_seconds, seconds);
      reference_sweeps = sweeps.Value() - before;

      before = sweeps.Value();
      timer.Reset();
      for (graph::NodeId u : lite->eval_users) {
        certified.push_back(recsys::Recommend(g, u, rec_opts, &top1_ws));
      }
      seconds = timer.ElapsedSeconds();
      top1.kernel_seconds =
          round == 0 ? seconds : std::min(top1.kernel_seconds, seconds);
      top1.work = sweeps.Value() - before;

      for (size_t i = 0; i < full.size(); ++i) {
        if (full[i] != certified[i]) {
          std::fprintf(stderr,
                       "EQUIVALENCE VIOLATION: certified top-1 %u != full "
                       "solve's %u (user %u)\n",
                       certified[i], full[i], lite->eval_users[i]);
          ok = false;
        }
      }
    }
    obs::Registry::Global()
        .GetGauge("bench.ppr_kernels.top1.reference_sweeps")
        .Set(static_cast<double>(reference_sweeps));
    obs::Registry::Global()
        .GetGauge("bench.ppr_kernels.top1.certified_sweeps")
        .Set(static_cast<double>(top1.work));
    std::printf("top1: %zu users, %zu sweeps full vs %zu certified\n",
                lite->eval_users.size(), reference_sweeps, top1.work);
    rows.push_back(top1);
  }

  // The certified top-1 over an edited graph, through the overlay and
  // materialised. Each user's pair is built once and raced `rounds` times;
  // the row keeps the best round total, like the rows above.
  {
    recsys::RecommenderOptions rec_opts;
    rec_opts.item_type = lite->item_type;
    ppr::PushWorkspace overlay_ws;
    const obs::Counter& sweeps =
        obs::Registry::Global().GetCounter("ppr.power.iterations");
    const graph::CsrGraph csr(g);
    std::vector<double> legacy_round(rounds, 0.0), kernel_round(rounds, 0.0);
    SweepRow row{"overlay"};
    WallTimer timer;
    for (graph::NodeId u : lite->eval_users) {
      graph::CsrOverlay overlay(csr);
      size_t removed = 0;
      csr.ForEachOutEdge(u, [&](graph::NodeId dst, graph::EdgeTypeId t,
                                double) {
        if (removed == 2 ||
            (t != lite->rated_type && t != lite->reviewed_type)) {
          return;
        }
        overlay.RemoveEdge(u, dst, t).CheckOK();
        ++removed;
      });
      const graph::CsrGraph materialised(overlay, 0);
      for (size_t round = 0; round < rounds; ++round) {
        uint64_t before = sweeps.Value();
        timer.Reset();
        graph::NodeId legacy_top =
            recsys::Recommend(materialised, u, rec_opts, &overlay_ws);
        legacy_round[round] += timer.ElapsedSeconds();
        const uint64_t legacy_work = sweeps.Value() - before;

        before = sweeps.Value();
        timer.Reset();
        graph::NodeId kernel_top =
            recsys::Recommend(overlay, u, rec_opts, &overlay_ws);
        kernel_round[round] += timer.ElapsedSeconds();
        const uint64_t kernel_work = sweeps.Value() - before;

        if (legacy_top != kernel_top || legacy_work != kernel_work) {
          std::fprintf(stderr,
                       "EQUIVALENCE VIOLATION: overlay top-1 %u after %zu "
                       "sweeps != materialised %u after %zu (user %u)\n",
                       kernel_top, static_cast<size_t>(kernel_work),
                       legacy_top, static_cast<size_t>(legacy_work), u);
          ok = false;
        }
        if (round == 0) row.work += kernel_work;
      }
    }
    row.legacy_seconds =
        *std::min_element(legacy_round.begin(), legacy_round.end());
    row.kernel_seconds =
        *std::min_element(kernel_round.begin(), kernel_round.end());
    std::printf("overlay: %zu users, %zu sweeps on either graph\n",
                lite->eval_users.size(), row.work);
    rows.push_back(row);
  }

  if (ws.stats().dense_resets != resets_after_warmup) {
    std::fprintf(stderr,
                 "WORKSPACE VIOLATION: %zu dense reset(s) after warm-up\n",
                 ws.stats().dense_resets - resets_after_warmup);
    ok = false;
  }
  // Touched-node accounting: the sparse reset must have paid O(k) per push,
  // with k well below n on this graph.
  const size_t begins = ws.stats().begins - begins_before;
  const size_t touched = ws.stats().touched_total - touched_before;
  if (touched >= begins * n) {
    std::fprintf(stderr,
                 "WORKSPACE VIOLATION: touched %zu nodes over %zu pushes — "
                 "no better than %zu-node dense resets\n",
                 touched, begins, n);
    ok = false;
  }

  TextTable table({"workload", "reference", "kernel", "speedup", "work"});
  for (size_t c = 1; c < 5; ++c) table.SetAlign(c, Align::kRight);
  for (const SweepRow& row : rows) {
    std::string tag = row.label;
    std::replace(tag.begin(), tag.end(), ' ', '.');
    obs::Registry::Global()
        .GetGauge("bench.ppr_kernels." + tag + ".legacy_seconds")
        .Set(row.legacy_seconds);
    obs::Registry::Global()
        .GetGauge("bench.ppr_kernels." + tag + ".kernel_seconds")
        .Set(row.kernel_seconds);
    obs::Registry::Global()
        .GetGauge("bench.ppr_kernels." + tag + ".speedup")
        .Set(row.Speedup());
    table.AddRow({row.label, FormatDuration(row.legacy_seconds),
                  FormatDuration(row.kernel_seconds),
                  FormatDouble(row.Speedup(), 2) + "x",
                  std::to_string(row.work)});
  }
  std::printf("%s\n", table.ToString().c_str());

  double overall = kernel_total > 0.0 ? legacy_total / kernel_total : 1.0;
  double repair_speedup = repair_kernel_asserted > 0.0
                              ? repair_legacy_asserted / repair_kernel_asserted
                              : 1.0;
  obs::Registry::Global()
      .GetGauge("bench.ppr_kernels.overall_speedup")
      .Set(overall);
  obs::Registry::Global()
      .GetGauge("bench.ppr_kernels.repair_speedup")
      .Set(repair_speedup);
  std::printf("overall: reference %s, kernel %s (%.2fx); candidate-TEST "
              "repair %.2fx; %zu nodes touched across %zu workspace pushes "
              "on a %zu-node graph\n",
              FormatDuration(legacy_total).c_str(),
              FormatDuration(kernel_total).c_str(), overall, repair_speedup,
              touched, begins, n);
  // The asserted aggregate is the candidate-TEST repair workload (the rows
  // where the paths differ by an O(n) term); the all-workload total above is
  // informational.
  if (repair_kernel_asserted >= repair_legacy_asserted) {
    std::fprintf(stderr,
                 "PERF VIOLATION: kernel repair aggregate (%.4fs) not faster "
                 "than the reference (%.4fs)\n",
                 repair_kernel_asserted, repair_legacy_asserted);
    ok = false;
  }

  bench::WriteBenchMetrics("ppr_kernels");
  if (!ok) return 1;
  std::printf("all kernel invariants held\n");
  return 0;
}
