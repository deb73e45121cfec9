#include "explain/weighted.h"

#include <algorithm>

#include "explain/internal.h"
#include "obs/trace.h"
#include "explain/search_space.h"
#include "graph/overlay.h"
#include "ppr/workspace.h"
#include "recsys/recommender.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace emigre::explain {

namespace {

using graph::EdgeRef;
using graph::GraphOverlay;
using graph::HinGraph;
using graph::NodeId;

/// Applies all adjustments to a fresh overlay and checks whether the WNI
/// tops the list (the certified top-1, on the search's workspace `ws`).
bool TestAdjustments(const HinGraph& g, NodeId user, NodeId wni,
                     const std::vector<WeightAdjustment>& adjustments,
                     const EmigreOptions& opts, ppr::PushWorkspace& ws,
                     NodeId* new_rec, size_t* tests) {
  ++*tests;
  GraphOverlay overlay(g);
  for (const WeightAdjustment& adj : adjustments) {
    if (!overlay
             .SetWeight(adj.edge.src, adj.edge.dst, adj.edge.type,
                        adj.new_weight)
             .ok()) {
      if (new_rec != nullptr) *new_rec = graph::kInvalidNode;
      return false;
    }
  }
  NodeId top = recsys::Recommend(overlay, user, opts.rec, &ws);
  if (new_rec != nullptr) *new_rec = top;
  return top == wni;
}

}  // namespace

Result<WeightedExplanation> RunWeightedIncremental(
    const HinGraph& g, const WhyNotQuestion& q, const EmigreOptions& opts,
    const WeightedOptions& wopts) {
  if (!(wopts.min_weight > 0.0) || wopts.min_weight > wopts.max_weight) {
    return Status::InvalidArgument(
        StrFormat("bad weight bounds [%f, %f]", wopts.min_weight,
                  wopts.max_weight));
  }
  EMIGRE_SPAN("weighted");
  WallTimer timer;
  internal::SearchBudget budget(opts);

  ppr::PushWorkspace ws;
  NodeId rec = recsys::Recommend(g, q.user, opts.rec, &ws);
  // Reuse Algorithm 1's per-neighbor PPR scores; its action list is exactly
  // the adjustable-edge universe.
  EMIGRE_ASSIGN_OR_RETURN(
      SearchSpace space,
      BuildRemoveSearchSpace(g, q.user, rec, q.why_not_item, opts));

  WeightedExplanation out;
  out.original_rec = rec;
  if (space.actions.empty()) {
    out.failure = FailureReason::kColdStart;
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  // For each edge, the unit-gap slope is contribution / weight (Eq. 5
  // without the weight factor); the best move is to the bound that lowers
  // the gap, and its achievable reduction is |Δw × slope|.
  struct Move {
    WeightAdjustment adjustment;
    double gap_reduction = 0.0;
  };
  std::vector<Move> moves;
  for (const CandidateAction& a : space.actions) {
    double w = g.EdgeWeight(a.edge.src, a.edge.dst, a.edge.type);
    if (w <= 0.0) continue;
    double slope = a.contribution / w;
    Move move;
    move.adjustment.edge = a.edge;
    move.adjustment.old_weight = w;
    if (slope > 0.0) {
      // Neighbor favors rec: lower the rating.
      move.adjustment.new_weight = wopts.min_weight;
      move.gap_reduction = (w - wopts.min_weight) * slope;
    } else if (slope < 0.0) {
      // Neighbor favors WNI: raise the rating.
      move.adjustment.new_weight = wopts.max_weight;
      move.gap_reduction = (wopts.max_weight - w) * (-slope);
    }
    if (move.gap_reduction > 0.0 &&
        move.adjustment.new_weight != move.adjustment.old_weight) {
      moves.push_back(move);
    }
  }
  std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
    if (a.gap_reduction != b.gap_reduction) {
      return a.gap_reduction > b.gap_reduction;
    }
    return a.adjustment.edge < b.adjustment.edge;
  });
  if (moves.empty()) {
    out.failure = FailureReason::kSearchExhausted;
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  double gap = space.tau;
  std::vector<WeightAdjustment> accumulated;
  bool success = false;
  for (const Move& move : moves) {
    if (budget.Exhausted(out.tests_performed)) {
      out.failure = FailureReason::kBudgetExceeded;
      out.seconds = timer.ElapsedSeconds();
      return out;
    }
    accumulated.push_back(move.adjustment);
    gap -= move.gap_reduction;
    if (gap <= 0.0) {
      NodeId new_rec = graph::kInvalidNode;
      if (TestAdjustments(g, q.user, q.why_not_item, accumulated, opts, ws,
                          &new_rec, &out.tests_performed)) {
        out.new_rec = new_rec;
        success = true;
        break;
      }
    }
  }
  if (!success) {
    out.failure = FailureReason::kSearchExhausted;
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  // Relaxation pass: restore each adjustment to the original weight when
  // correctness survives, keeping the explanation minimal and gentle.
  for (size_t i = accumulated.size(); i > 0; --i) {
    if (budget.Exhausted(out.tests_performed)) break;
    std::vector<WeightAdjustment> trial = accumulated;
    trial.erase(trial.begin() + static_cast<ptrdiff_t>(i - 1));
    NodeId new_rec = graph::kInvalidNode;
    if (TestAdjustments(g, q.user, q.why_not_item, trial, opts, ws,
                        &new_rec, &out.tests_performed)) {
      accumulated = std::move(trial);
      out.new_rec = new_rec;
    }
  }

  out.found = true;
  out.adjustments = std::move(accumulated);
  out.failure = FailureReason::kNone;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace emigre::explain
