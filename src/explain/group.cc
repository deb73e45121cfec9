#include "explain/group.h"

#include <algorithm>

#include "recsys/recommender.h"
#include "util/string_util.h"

namespace emigre::explain {

Result<GroupExplanation> ExplainGroup(const Emigre& engine,
                                      const WhyNotGroupQuestion& q,
                                      Mode mode, Heuristic heuristic) {
  if (q.items.empty()) {
    return Status::InvalidArgument("group Why-Not question with no items");
  }
  if (!engine.csr().IsValidNode(q.user)) {
    return Status::InvalidArgument(StrFormat("invalid user %u", q.user));
  }

  GroupExplanation out;
  recsys::RecommendationList ranking = engine.CurrentRanking(q.user);
  graph::NodeId rec = ranking.Top();

  // Attempt members in ranking order: the best-ranked member needs the
  // smallest promotion. Members outside the ranking (score 0 / unreachable)
  // come last in id order.
  std::vector<graph::NodeId> ordered = q.items;
  std::sort(ordered.begin(), ordered.end());
  ordered.erase(std::unique(ordered.begin(), ordered.end()), ordered.end());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](graph::NodeId a, graph::NodeId b) {
                     return ranking.RankOf(a) < ranking.RankOf(b);
                   });

  for (graph::NodeId item : ordered) {
    if (!engine.ValidateQuestion(WhyNotQuestion{q.user, item}, rec).ok()) {
      out.skipped.push_back(item);
      continue;
    }
    ++out.attempts;
    EMIGRE_ASSIGN_OR_RETURN(
        Explanation e,
        engine.Explain(WhyNotQuestion{q.user, item}, mode, heuristic));
    if (e.found) {
      out.found = true;
      out.promoted_item = item;
      out.explanation = std::move(e);
      return out;
    }
  }
  return out;
}

std::vector<graph::NodeId> ItemsOfCategory(const graph::HinGraph& g,
                                           graph::NodeId category,
                                           graph::EdgeTypeId belongs_type,
                                           graph::NodeTypeId item_type) {
  std::vector<graph::NodeId> items;
  if (!g.IsValidNode(category)) return items;
  // belongs-to edges are bidirectionalized by the pipeline; collect from
  // both directions and deduplicate.
  g.ForEachInEdge(category, [&](graph::NodeId src, graph::EdgeTypeId type,
                                double) {
    if (type == belongs_type && g.NodeType(src) == item_type) {
      items.push_back(src);
    }
  });
  g.ForEachOutEdge(category, [&](graph::NodeId dst, graph::EdgeTypeId type,
                                 double) {
    if (type == belongs_type && g.NodeType(dst) == item_type) {
      items.push_back(dst);
    }
  });
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

}  // namespace emigre::explain
