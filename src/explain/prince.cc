#include "explain/prince.h"

#include <algorithm>

#include "graph/overlay.h"
#include "obs/trace.h"
#include "ppr/reverse_push.h"
#include "ppr/workspace.h"
#include "recsys/recommender.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace emigre::explain {

namespace {

using graph::EdgeRef;
using graph::HinGraph;
using graph::NodeId;

}  // namespace

Result<PrinceResult> RunPrince(const HinGraph& g, NodeId user,
                               const PrinceOptions& opts) {
  if (!g.IsValidNode(user)) {
    return Status::InvalidArgument(StrFormat("invalid user %u", user));
  }
  EMIGRE_SPAN("prince");
  WallTimer timer;
  PrinceResult result;

  recsys::RecommendationList ranking =
      recsys::RankItems(g, user, opts.emigre.rec);
  if (ranking.empty()) {
    return Status::FailedPrecondition(
        StrFormat("user %u has no recommendation to explain", user));
  }
  NodeId rec = ranking.Top();
  result.original_rec = rec;

  // The user's removable actions.
  std::vector<EdgeRef> actions;
  for (const graph::Edge& e : g.OutEdges(user)) {
    if (e.node == user || !opts.emigre.IsAllowedEdgeType(e.type)) continue;
    actions.push_back(EdgeRef{user, e.node, e.type});
  }
  if (actions.empty()) {
    result.seconds = timer.ElapsedSeconds();
    return result;  // not found: nothing to remove
  }

  std::vector<double> ppr_to_rec =
      ppr::ReversePush(g, rec, opts.emigre.rec.ppr).estimate;

  // Try each top-ranked item as the replacement r*; keep the smallest
  // verified swap set. Every re-rank asks only for the top-1, so it runs
  // the certified `Recommend` on one workspace for the whole search.
  ppr::PushWorkspace ws;
  size_t num_candidates =
      std::min(opts.replacement_candidates, ranking.size());
  for (size_t ci = 1; ci < num_candidates; ++ci) {
    NodeId r_star = ranking.at(ci).item;
    std::vector<double> ppr_to_star =
        ppr::ReversePush(g, r_star, opts.emigre.rec.ppr).estimate;

    // PRINCE's swap-set order: remove first the actions that push rec up
    // the most relative to r*.
    std::vector<std::pair<double, EdgeRef>> scored;
    for (const EdgeRef& a : actions) {
      double w = g.EdgeWeight(a.src, a.dst, a.type);
      double score = w * (ppr_to_rec[a.dst] - ppr_to_star[a.dst]);
      scored.emplace_back(score, a);
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });

    graph::GraphOverlay overlay(g);
    std::vector<EdgeRef> removed;
    for (const auto& [score, edge] : scored) {
      if (score <= 0.0) break;  // removal would now help rec instead
      // Stop if this candidate cannot beat the best explanation found.
      if (result.found && removed.size() + 1 >= result.actions.size()) break;
      overlay.RemoveEdge(edge.src, edge.dst, edge.type).CheckOK();
      removed.push_back(edge);
      ++result.tests_performed;
      NodeId new_top = recsys::Recommend(overlay, user, opts.emigre.rec, &ws);
      if (new_top != rec && new_top != graph::kInvalidNode) {
        if (!result.found || removed.size() < result.actions.size()) {
          result.found = true;
          result.actions = removed;
          result.replacement = new_top;
        }
        break;
      }
    }
  }

  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace emigre::explain
