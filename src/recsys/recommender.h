#ifndef EMIGRE_RECSYS_RECOMMENDER_H_
#define EMIGRE_RECSYS_RECOMMENDER_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "graph/traits.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/options.h"
#include "ppr/power_iteration.h"
#include "ppr/workspace.h"
#include "recsys/rec_list.h"

namespace emigre::recsys {

/// \brief Parameters of the PPR recommender (paper Eq. 2).
///
/// Items are scored by exact PPR (power iteration). The allocating
/// `RankItems`/`Recommend` solve to `power_tolerance`; the workspace
/// `Recommend` (the exact TEST, the explain pipeline's own `rec`) stops as
/// soon as the top-1 is certified and returns the same item.
struct RecommenderOptions {
  /// PPR parameters (α, tolerances).
  ppr::PprOptions ppr;

  /// Node type of recommendable items. Candidates are all nodes of this
  /// type except those the user already points an edge to (the paper's
  /// `I \ N_out(u)`), and except the user itself.
  graph::NodeTypeId item_type = graph::kInvalidNodeType;
};

/// \brief True if `user` has any out-edge to `node` in the view `g`.
///
/// Implemented via traversal so it works uniformly over `HinGraph`,
/// `GraphOverlay` and `CsrGraph` (the latter has no HasEdge lookup).
template <graph::GraphLike G>
bool HasOutEdgeTo(const G& g, graph::NodeId user, graph::NodeId node) {
  bool found = false;
  g.ForEachOutEdge(user, [&](graph::NodeId dst, graph::EdgeTypeId, double) {
    if (dst == node) found = true;
  });
  return found;
}

/// \brief True if `item` is a recommendation candidate for `user` in `g`:
/// an item-typed node the user has no outgoing edge to.
template <graph::GraphLike G>
bool IsCandidateItem(const G& g, graph::NodeId user, graph::NodeId item,
                     graph::NodeTypeId item_type) {
  if (item == user) return false;
  if (g.NodeType(item) != item_type) return false;
  return !HasOutEdgeTo(g, user, item);
}

/// \brief Scores every candidate item for `user` with PPR and returns the
/// full ranking (descending score, id-ascending tie-break).
///
/// This is the recommender of paper §3.2: relevance p(u, t) = PPR(u, t),
/// candidates restricted to items the user has not interacted with, and the
/// top-1 of the ranking being `rec`.
template <graph::GraphLike G>
RecommendationList RankItems(const G& g, graph::NodeId user,
                             const RecommenderOptions& opts) {
  EMIGRE_SPAN("rank");
  EMIGRE_COUNTER("recsys.rank.calls").Increment();
  std::vector<double> scores = ppr::PowerIterationPpr(g, user, opts.ppr);

  // Collect the user's current out-neighborhood once (O(deg)) instead of
  // probing per item.
  std::vector<char> interacted(g.NumNodes(), 0);
  if (user < g.NumNodes()) {
    g.ForEachOutEdge(user, [&](graph::NodeId dst, graph::EdgeTypeId, double) {
      interacted[dst] = 1;
    });
  }

  std::vector<ScoredItem> scored;
  for (graph::NodeId n = 0; n < g.NumNodes(); ++n) {
    if (n == user || interacted[n]) continue;
    if (g.NodeType(n) != opts.item_type) continue;
    scored.push_back(ScoredItem{n, scores[n]});
  }
  return RecommendationList(std::move(scored));
}

/// \brief The top-1 recommendation `rec` for `user` (Eq. 2), or
/// kInvalidNode when no candidate exists.
template <graph::GraphLike G>
graph::NodeId Recommend(const G& g, graph::NodeId user,
                        const RecommenderOptions& opts) {
  return RankItems(g, user, opts).Top();
}

/// Absolute floating-point allowance of the certified top-1 stop. The
/// contraction bound below holds in exact arithmetic; the rounding of the
/// sweeps still to come moves an iterate by far less than this.
inline constexpr double kTop1CertificateSlack = 1e-11;

namespace detail {

/// The best candidate (highest score, lowest id on ties) and the runner-up
/// score (−∞ when there is none) over non-empty ascending `candidates`.
struct LeadingPair {
  graph::NodeId leader = graph::kInvalidNode;
  double leader_score = 0.0;
  double runner_up_score = 0.0;
};

template <typename ScoreFn>
LeadingPair FindLeadingPair(const std::vector<graph::NodeId>& candidates,
                            ScoreFn&& score) {
  LeadingPair out{candidates[0], score(candidates[0]),
                  -std::numeric_limits<double>::infinity()};
  for (size_t i = 1; i < candidates.size(); ++i) {
    double s = score(candidates[i]);
    if (s > out.leader_score) {
      out.runner_up_score = out.leader_score;
      out.leader_score = s;
      out.leader = candidates[i];
    } else if (s > out.runner_up_score) {
      out.runner_up_score = s;
    }
  }
  return out;
}

}  // namespace detail

/// \brief Workspace-backed `Recommend`: the same top-1 as the allocating
/// overload, with the PPR scratch state in the reusable `PushWorkspace`.
/// Passing nullptr falls back to the allocating overload.
///
/// Power iteration computes a *certified* top-1. A sweep is an L1
/// contraction with factor (1−α), so after a sweep with L1 change δ the
/// current iterate is within E = (1−α)/α · δ of the exact PPR in L1, and
/// so moves any pairwise gap by at most E. Once the leader beats the
/// runner-up (and so every other candidate) by more than
/// 2E + `kTop1CertificateSlack`, the exact PPR puts the leader strictly
/// ahead by more than E; the allocating overload's converged vector, whose
/// own bound is at most E, keeps it ahead too. The solve stops there and
/// returns the item the full solve would. Exact ties never certify: they
/// run to `power_tolerance` and keep the lowest-id tie-break. The deadline
/// is still checked once per sweep.
template <graph::GraphLike G>
graph::NodeId Recommend(const G& g, graph::NodeId user,
                        const RecommenderOptions& opts,
                        ppr::PushWorkspace* ws) {
  if (ws == nullptr) return Recommend(g, user, opts);
  EMIGRE_SPAN("top1");
  const size_t n = g.NumNodes();
  // Candidates as in RankItems, built once: item-typed nodes other than
  // the user that the user has no out-edge to, ascending.
  std::vector<graph::NodeId> neighbours;
  if (user < n) {
    g.ForEachOutEdge(user, [&](graph::NodeId dst, graph::EdgeTypeId, double) {
      neighbours.push_back(dst);
    });
    std::sort(neighbours.begin(), neighbours.end());
  }
  std::vector<graph::NodeId> candidates;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (v == user || g.NodeType(v) != opts.item_type) continue;
    if (std::binary_search(neighbours.begin(), neighbours.end(), v)) continue;
    candidates.push_back(v);
  }
  // Zero or one candidate: the answer does not depend on the scores.
  if (candidates.size() <= 1) {
    return candidates.empty() ? graph::kInvalidNode : candidates[0];
  }

  const double alpha = opts.ppr.alpha;
  const double bound_per_delta = 2.0 * (1.0 - alpha) / alpha;
  std::vector<double>* scores = nullptr;
  ppr::PowerIterationPprInto(
      g, user, opts.ppr, *ws, &scores,
      [&](const std::vector<double>& p, double delta) {
        detail::LeadingPair pair = detail::FindLeadingPair(
            candidates, [&p](graph::NodeId v) { return p[v]; });
        return pair.leader_score - pair.runner_up_score >
               bound_per_delta * delta + kTop1CertificateSlack;
      });
  return detail::FindLeadingPair(candidates, [scores](graph::NodeId v) {
           return (*scores)[v];
         }).leader;
}

}  // namespace emigre::recsys

#endif  // EMIGRE_RECSYS_RECOMMENDER_H_
