#ifndef EMIGRE_EXPLAIN_SEARCH_SPACE_H_
#define EMIGRE_EXPLAIN_SEARCH_SPACE_H_

#include <vector>

#include "explain/explanation.h"
#include "explain/options.h"
#include "graph/csr.h"
#include "graph/hin_graph.h"
#include "graph/types.h"
#include "ppr/cache.h"
#include "util/result.h"

namespace emigre::explain {

/// \brief One candidate action with its contribution score.
///
/// In Remove mode the action is an existing edge (u, n_i) ∈ E whose removal
/// helps the Why-Not item (Eq. 5); in Add mode a non-existing edge whose
/// addition helps it (Eq. 6). Positive contribution = helpful to WNI.
struct CandidateAction {
  graph::EdgeRef edge;
  double contribution = 0.0;
};

/// \brief Output of the search-space definition phase (Algorithms 1 and 2).
///
/// `actions` is the paper's list H, sorted by descending contribution;
/// `tau` is the threshold τ — here with the self-consistent "gap" semantics
/// (see DESIGN.md §3): τ estimates how much the current recommendation
/// dominates the Why-Not item through the user's own actions, so τ > 0
/// initially and a candidate edge set whose accumulated contributions push
/// it to ≤ 0 is worth TESTing.
///
/// The PPR(·, rec) and PPR(·, WNI) vectors (computed once via Reverse Local
/// Push) are retained: the Exhaustive Comparison reuses the same machinery
/// per target item.
struct SearchSpace {
  Mode mode = Mode::kRemove;
  graph::NodeId user = graph::kInvalidNode;
  graph::NodeId rec = graph::kInvalidNode;  ///< current top-1 (may be absent)
  graph::NodeId wni = graph::kInvalidNode;  ///< the Why-Not item
  std::vector<CandidateAction> actions;     ///< the paper's H, sorted desc
  double tau = 0.0;

  std::vector<double> ppr_to_rec;  ///< PPR(·, rec)
  std::vector<double> ppr_to_wni;  ///< PPR(·, WNI)
};

/// \brief Algorithm 1: Remove-mode search space.
///
/// Scores every allowed out-edge (u, n_i) with
///   contribution_rmv(n_i) = W(u, n_i) · (PPR(n_i, rec) − PPR(n_i, WNI)),
/// (Eq. 5) and returns them sorted by descending contribution, together
/// with τ = Σ contributions.
///
/// Generic over the base graph `G` (the engine's `CsrGraph` or a
/// `HinGraph`); explicitly instantiated in search_space.cc.
template <typename G>
[[nodiscard]] Result<SearchSpace> BuildRemoveSearchSpace(
    const G& g, graph::NodeId user, graph::NodeId rec, graph::NodeId wni,
    const EmigreOptions& opts,
    ppr::ReversePushCache<graph::CsrGraph>* cache = nullptr);

/// \brief Algorithm 2: Add-mode search space.
///
/// Runs Reverse Local Push from the Why-Not item to discover nodes with
/// non-trivial PPR(·, WNI) (the paper's PPR_WNI list), keeps item nodes the
/// user has not interacted with, and scores them with
///   contribution_add(n_i) = PPR(n_i, WNI) − PPR(n_i, rec)          (Eq. 6).
/// τ is computed over the user's *existing* edges exactly as in Algorithm 1
/// (the initial rec-vs-WNI gap that additions must overcome).
template <typename G>
[[nodiscard]] Result<SearchSpace> BuildAddSearchSpace(
    const G& g, graph::NodeId user, graph::NodeId rec, graph::NodeId wni,
    const EmigreOptions& opts,
    ppr::ReversePushCache<graph::CsrGraph>* cache = nullptr);

}  // namespace emigre::explain

#endif  // EMIGRE_EXPLAIN_SEARCH_SPACE_H_
