#ifndef EMIGRE_RECSYS_RECOMMENDER_H_
#define EMIGRE_RECSYS_RECOMMENDER_H_

#include <vector>

#include "graph/traits.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/forward_push.h"
#include "ppr/kernels.h"
#include "ppr/options.h"
#include "ppr/power_iteration.h"
#include "ppr/workspace.h"
#include "recsys/rec_list.h"

namespace emigre::recsys {

/// \brief How candidate items are scored.
enum class Scorer {
  /// Exact PPR by power iteration — the reference, used everywhere
  /// correctness matters (the TEST verifier in particular).
  kPowerIteration,
  /// Forward Local Push estimates — cheaper on large graphs, but a lower
  /// bound of the true PPR whose error can reorder near-tied items. Offered
  /// for throughput-sensitive serving paths and as an ablation.
  kForwardPush,
};

/// \brief Parameters of the PPR recommender (paper Eq. 2).
struct RecommenderOptions {
  /// PPR parameters (α, tolerances).
  ppr::PprOptions ppr;

  /// Node type of recommendable items. Candidates are all nodes of this
  /// type except those the user already points an edge to (the paper's
  /// `I \ N_out(u)`), and except the user itself.
  graph::NodeTypeId item_type = graph::kInvalidNodeType;

  /// Scoring engine (see Scorer).
  Scorer scorer = Scorer::kPowerIteration;
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
  std::vector<double> scores =
      opts.scorer == Scorer::kForwardPush
          ? ppr::ForwardPush(g, user, opts.ppr).estimate
          : ppr::PowerIterationPpr(g, user, opts.ppr);

  // Collect the user's current out-neighborhood once (O(deg)) instead of
  // probing per item.
  std::vector<char> interacted(g.NumNodes(), 0);
  g.ForEachOutEdge(user, [&](graph::NodeId dst, graph::EdgeTypeId, double) {
    interacted[dst] = 1;
  });

  std::vector<ScoredItem> scored;
  for (graph::NodeId n = 0; n < g.NumNodes(); ++n) {
    if (n == user || interacted[n]) continue;
    if (g.NodeType(n) != opts.item_type) continue;
    scored.push_back(ScoredItem{n, scores[n]});
  }
  return RecommendationList(std::move(scored));
}

/// \brief Workspace-backed `RankItems`: identical scores and ranking, but
/// the PPR scratch state and the interacted-bitmap live in the reusable
/// `PushWorkspace` instead of per-call allocations. Passing nullptr falls
/// back to the allocating overload.
template <graph::GraphLike G>
RecommendationList RankItems(const G& g, graph::NodeId user,
                             const RecommenderOptions& opts,
                             ppr::PushWorkspace* ws) {
  if (ws == nullptr) return RankItems(g, user, opts);
  EMIGRE_SPAN("rank");
  EMIGRE_COUNTER("recsys.rank.calls").Increment();
  const size_t n = g.NumNodes();
  std::vector<ScoredItem> scored;

  // Forward push leaves its scores sparse in the workspace (untouched ⇒
  // 0.0, exactly as the reference dense vector starts at 0.0); power
  // iteration fills a reusable dense buffer. Either way the interacted
  // bitmap is the workspace's epoch marks.
  std::vector<double>* scores = nullptr;
  if (opts.scorer == Scorer::kForwardPush) {
    ppr::ForwardPushKernel(g, user, opts.ppr, *ws);
  } else {
    ppr::PowerIterationPprInto(g, user, opts.ppr, *ws, &scores);
    ws->Begin(n);
  }
  g.ForEachOutEdge(user, [&](graph::NodeId dst, graph::EdgeTypeId, double) {
    ws->Mark(dst);
  });
  for (graph::NodeId v = 0; v < n; ++v) {
    if (v == user || ws->Marked(v)) continue;
    if (g.NodeType(v) != opts.item_type) continue;
    double score = scores != nullptr ? (*scores)[v] : ws->Estimate(v);
    scored.push_back(ScoredItem{v, score});
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

/// Workspace-backed variant of `Recommend` (see the RankItems overload).
template <graph::GraphLike G>
graph::NodeId Recommend(const G& g, graph::NodeId user,
                        const RecommenderOptions& opts,
                        ppr::PushWorkspace* ws) {
  return RankItems(g, user, opts, ws).Top();
}

}  // namespace emigre::recsys

#endif  // EMIGRE_RECSYS_RECOMMENDER_H_
