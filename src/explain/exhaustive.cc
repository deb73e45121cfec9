#include "explain/exhaustive.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "check/invariants.h"
#include "explain/internal.h"
#include "graph/csr_snapshot.h"
#include "obs/trace.h"
#include "ppr/reverse_push.h"

namespace emigre::explain {

namespace {

using graph::EdgeRef;
using graph::NodeId;

}  // namespace

template <typename G>
Explanation RunExhaustive(const G& g, const SearchSpace& space,
                          const std::vector<NodeId>& targets,
                          TesterInterface& tester, const EmigreOptions& opts,
                          bool direct,
                          ppr::ReversePushCache<graph::CsrGraph>* cache) {
  EMIGRE_SPAN("exhaustive");
  internal::SearchBudget budget(opts);

  Explanation out;
  out.mode = space.mode;
  out.heuristic =
      direct ? Heuristic::kExhaustiveDirect : Heuristic::kExhaustive;
  out.search_space_size = space.actions.size();
  internal::QueryRecorder recorder(&out, tester);

  // No sign pruning (paper §5.2.2): cap H by |contribution| instead, so
  // strong negative contributors — useful against non-rec targets — stay.
  std::vector<CandidateAction> h = space.actions;
  if (opts.max_subset_nodes > 0 && h.size() > opts.max_subset_nodes) {
    std::sort(h.begin(), h.end(),
              [](const CandidateAction& a, const CandidateAction& b) {
                double fa = std::abs(a.contribution);
                double fb = std::abs(b.contribution);
                if (fa != fb) return fa > fb;
                return a.edge < b.edge;
              });
    h.resize(opts.max_subset_nodes);
  }
  if (h.empty()) {
    out.failure = FailureReason::kColdStart;
    return recorder.Finish();
  }

  // Effective target list: drop WNI and the user's interacted items if any
  // slipped in; keep order (ranking order from the caller).
  std::vector<NodeId> t_list;
  for (NodeId t : targets) {
    if (t != space.wni && t != space.user) t_list.push_back(t);
  }
  if (t_list.empty()) {
    // Nothing dominates WNI per the caller; degenerate but handle: every
    // singleton is a candidate, TEST decides.
    t_list.push_back(space.rec);
  }

  // PPR(·, t) per target. The rec column was already computed during the
  // search-space phase; reuse it.
  const size_t num_targets = t_list.size();
  std::vector<std::vector<double>> ppr_to_t(num_targets);
  for (size_t ti = 0; ti < num_targets; ++ti) {
    if (t_list[ti] == space.rec && !space.ppr_to_rec.empty()) {
      ppr_to_t[ti] = space.ppr_to_rec;
    } else if (t_list[ti] == graph::kInvalidNode ||
               !g.IsValidNode(t_list[ti])) {
      ppr_to_t[ti].assign(g.NumNodes(), 0.0);
    } else if (cache != nullptr) {
      ppr_to_t[ti] = cache->Get(t_list[ti])->ToDense(g.NumNodes());
    } else {
      ppr_to_t[ti] = ppr::ReversePush(g, t_list[ti], opts.rec.ppr).estimate;
    }
  }

  // Contribution matrix C (|H| x |T|) and per-target thresholds (Eq. 7).
  // Remove mode: C[j][t] = W(u,n_j)·(PPR(n_j,t) − PPR(n_j,WNI));
  // Add mode:    C[j][t] = w_add ·(PPR(n_j,WNI) − PPR(n_j,t)).
  // A combination S is a candidate iff Σ_{j∈S} C[j][t] > Threshold(t) ∀t,
  // where Threshold(t) is the rec-list gap routed through existing actions.
  std::vector<std::vector<double>> c(h.size(),
                                     std::vector<double>(num_targets, 0.0));
  for (size_t j = 0; j < h.size(); ++j) {
    NodeId n = h[j].edge.dst;
    if (space.mode == Mode::kRemove) {
      double w = g.EdgeWeight(h[j].edge.src, h[j].edge.dst, h[j].edge.type);
      for (size_t ti = 0; ti < num_targets; ++ti) {
        c[j][ti] = w * (ppr_to_t[ti][n] - space.ppr_to_wni[n]);
      }
    } else {
      for (size_t ti = 0; ti < num_targets; ++ti) {
        c[j][ti] =
            opts.add_edge_weight * (space.ppr_to_wni[n] - ppr_to_t[ti][n]);
      }
    }
  }

  std::vector<double> threshold(num_targets, 0.0);
  g.ForEachOutEdge(
      space.user, [&](NodeId dst, graph::EdgeTypeId type, double w) {
        if (dst == space.user || !opts.IsAllowedEdgeType(type)) return;
        for (size_t ti = 0; ti < num_targets; ++ti) {
          threshold[ti] += w * (ppr_to_t[ti][dst] - space.ppr_to_wni[dst]);
        }
      });

  size_t max_size = h.size();
  if (opts.max_explanation_size > 0) {
    max_size = std::min(max_size, opts.max_explanation_size);
  }

  struct Candidate {
    double min_margin;
    std::vector<size_t> indices;
  };

  // Index of each target within t_list, for the Add-mode column skip below.
  std::vector<size_t> target_index_of_node(g.NumNodes(),
                                           std::numeric_limits<size_t>::max());
  for (size_t ti = 0; ti < num_targets; ++ti) {
    if (t_list[ti] != graph::kInvalidNode) {
      target_index_of_node[t_list[ti]] = ti;
    }
  }

  const double slack = opts.exhaustive_margin_slack;
  std::vector<double> sums(num_targets);
  std::vector<char> skip(num_targets, 0);
  for (size_t size = 1; size <= max_size; ++size) {
    std::vector<Candidate> candidates;
    internal::ForEachCombination(
        h.size(), size, [&](const std::vector<size_t>& idx) {
          std::fill(sums.begin(), sums.end(), 0.0);
          std::fill(skip.begin(), skip.end(), 0);
          for (size_t j : idx) {
            for (size_t ti = 0; ti < num_targets; ++ti) sums[ti] += c[j][ti];
            if (space.mode == Mode::kAdd) {
              // Adding (u, t) removes target t from the recommendable set:
              // WNI need not dominate it.
              size_t ti = target_index_of_node[h[j].edge.dst];
              if (ti != std::numeric_limits<size_t>::max()) skip[ti] = 1;
            }
          }
          double min_margin = std::numeric_limits<double>::infinity();
          for (size_t ti = 0; ti < num_targets; ++ti) {
            if (skip[ti]) continue;
            min_margin = std::min(min_margin, sums[ti] - threshold[ti]);
            if (min_margin < -slack) return true;  // rejected, keep going
          }
          candidates.push_back(Candidate{min_margin, idx});
          return true;
        });
    // Most-robust candidates first within this size class.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.min_margin != b.min_margin) {
                  return a.min_margin > b.min_margin;
                }
                return a.indices < b.indices;
              });

    if (direct && !candidates.empty()) {
      // The paper's Exhaustive-direct baseline: report the smallest
      // threshold-passing candidate without verification.
      ++out.candidates_considered;
      std::vector<EdgeRef> edges;
      edges.reserve(candidates.front().indices.size());
      for (size_t j : candidates.front().indices) edges.push_back(h[j].edge);
      out.found = true;
      out.verified = false;
      out.edges = std::move(edges);
      out.failure = FailureReason::kNone;
      return recorder.Finish();
    }

    // Verify this size class as one batch; a ParallelTester fans it across
    // worker threads, accepting the lowest-index success (same candidate a
    // serial scan finds).
    std::vector<std::vector<EdgeRef>> batch;
    batch.reserve(candidates.size());
    for (const Candidate& cand : candidates) {
      std::vector<EdgeRef> edges;
      edges.reserve(cand.indices.size());
      for (size_t j : cand.indices) edges.push_back(h[j].edge);
      batch.push_back(std::move(edges));
    }
    TesterInterface::BatchResult verdict = tester.TestBatch(
        batch, space.mode,
        [&budget](size_t tests) { return budget.Exhausted(tests); });
    if (verdict.Found()) {
      out.candidates_considered += verdict.accepted + 1;
      out.found = true;
      out.verified = tester.IsExact();
      out.edges = std::move(batch[verdict.accepted]);
      out.new_rec = verdict.new_rec;
      out.failure = FailureReason::kNone;
      if (out.verified &&
          check::ShouldCheck(opts.check_level, check::CheckLevel::kFull)) {
        check::DcheckOk(
            check::ValidateExplanation(
                g, WhyNotQuestion{space.user, space.wni}, out, opts),
            "RunExhaustive");
      }
      return recorder.Finish();
    }
    if (verdict.BudgetHit()) {
      // The serial loop counted the candidate it was about to test when the
      // budget fired.
      out.candidates_considered += verdict.budget_index + 1;
      out.failure = FailureReason::kBudgetExceeded;
      if (opts.anytime && verdict.budget_index < batch.size()) {
        // Anytime degradation: the first untested candidate has the widest
        // minimum margin of the remainder (most robust per Eq. 7), i.e. the
        // one closest to a confirmed flip. Deterministic at any thread
        // count because budget_index follows the serial boundary.
        out.found = true;
        out.degraded = true;
        out.verified = false;
        out.edges = batch[verdict.budget_index];
        double margin = candidates[verdict.budget_index].min_margin;
        out.degraded_gap = margin < 0.0 ? -margin : 0.0;
      }
      return recorder.Finish();
    }
    out.candidates_considered += batch.size();
  }

  out.failure = FailureReason::kSearchExhausted;
  return recorder.Finish();
}

// Explicit instantiations: the classic in-memory graph and the mmap-backed
// snapshot view.
template Explanation RunExhaustive<graph::HinGraph>(
    const graph::HinGraph&, const SearchSpace&, const std::vector<NodeId>&,
    TesterInterface&, const EmigreOptions&, bool,
    ppr::ReversePushCache<graph::CsrGraph>*);
template Explanation RunExhaustive<graph::CsrSnapshotView>(
    const graph::CsrSnapshotView&, const SearchSpace&,
    const std::vector<NodeId>&, TesterInterface&, const EmigreOptions&, bool,
    ppr::ReversePushCache<graph::CsrGraph>*);

}  // namespace emigre::explain
