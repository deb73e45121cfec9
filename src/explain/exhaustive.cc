#include "explain/exhaustive.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "check/invariants.h"
#include "explain/internal.h"
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
  internal::SearchDriver search(
      space, direct ? Heuristic::kExhaustiveDirect : Heuristic::kExhaustive,
      tester, opts);

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
  if (h.empty()) return search.Finish(FailureReason::kColdStart);

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
  const size_t max_size = internal::MaxExplanationSize(h.size(), opts);
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
      search.Consider();
      search.Accept(internal::EdgesOf(h, candidates.front().indices),
                    graph::kInvalidNode, /*verified=*/false);
      break;
    }

    // Verify this size class as one batch. The anytime candidate is the
    // first untested one: the widest minimum margin of the remainder (most
    // robust per Eq. 7), i.e. the one closest to a confirmed flip.
    std::vector<std::vector<EdgeRef>> batch;
    batch.reserve(candidates.size());
    for (const Candidate& cand : candidates) {
      batch.push_back(internal::EdgesOf(h, cand.indices));
    }
    if (search.Verify(std::move(batch), [&](size_t i) {
          return -candidates[i].min_margin;
        })) {
      break;
    }
  }

  Explanation out = search.Finish(FailureReason::kSearchExhausted);
  if (out.found && out.verified &&
      check::ShouldCheck(opts.check_level, check::CheckLevel::kFull)) {
    check::DcheckOk(check::ValidateExplanation(
                        g, WhyNotQuestion{space.user, space.wni}, out, opts),
                    "RunExhaustive");
  }
  return out;
}

// Explicit instantiations: the engine's CSR graph and the in-memory graph.
template Explanation RunExhaustive<graph::CsrGraph>(
    const graph::CsrGraph&, const SearchSpace&, const std::vector<NodeId>&,
    TesterInterface&, const EmigreOptions&, bool,
    ppr::ReversePushCache<graph::CsrGraph>*);
template Explanation RunExhaustive<graph::HinGraph>(
    const graph::HinGraph&, const SearchSpace&, const std::vector<NodeId>&,
    TesterInterface&, const EmigreOptions&, bool,
    ppr::ReversePushCache<graph::CsrGraph>*);

}  // namespace emigre::explain
