#include "explain/combined.h"

#include <algorithm>

#include "explain/internal.h"
#include "obs/trace.h"
#include "explain/search_space.h"
#include "explain/tester.h"
#include "ppr/workspace.h"
#include "recsys/recommender.h"
#include "util/timer.h"

namespace emigre::explain {

Result<CombinedExplanation> RunCombinedIncremental(const graph::HinGraph& g,
                                                   const WhyNotQuestion& q,
                                                   const EmigreOptions& opts) {
  EMIGRE_SPAN("combined");
  WallTimer timer;
  internal::SearchBudget budget(opts);

  ppr::PushWorkspace ws;
  graph::NodeId rec = recsys::Recommend(g, q.user, opts.rec, &ws);

  EMIGRE_ASSIGN_OR_RETURN(
      SearchSpace remove_space,
      BuildRemoveSearchSpace(g, q.user, rec, q.why_not_item, opts));
  EMIGRE_ASSIGN_OR_RETURN(
      SearchSpace add_space,
      BuildAddSearchSpace(g, q.user, rec, q.why_not_item, opts));

  CombinedExplanation out;
  out.original_rec = rec;

  // Merge the two candidate lists, tagging each action with its direction;
  // both spaces share the same gap semantics, so their contributions are
  // directly comparable.
  struct Tagged {
    CandidateAction action;
    Mode mode;
  };
  std::vector<Tagged> merged;
  merged.reserve(remove_space.actions.size() + add_space.actions.size());
  for (const CandidateAction& a : remove_space.actions) {
    merged.push_back(Tagged{a, Mode::kRemove});
  }
  for (const CandidateAction& a : add_space.actions) {
    merged.push_back(Tagged{a, Mode::kAdd});
  }
  std::sort(merged.begin(), merged.end(), [](const Tagged& a,
                                             const Tagged& b) {
    if (a.action.contribution != b.action.contribution) {
      return a.action.contribution > b.action.contribution;
    }
    if (a.mode != b.mode) return a.mode == Mode::kRemove;
    return a.action.edge < b.action.edge;
  });

  if (merged.empty()) {
    out.failure = FailureReason::kColdStart;
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  ExplanationTester tester(g, q.user, q.why_not_item, opts);
  // Both taus estimate the same rec-vs-WNI gap; Remove mode's is exact over
  // the user's edges, so prefer it.
  double gap = remove_space.tau;
  std::vector<ExplanationTester::ModedEdit> accumulated;

  for (const Tagged& t : merged) {
    if (t.action.contribution <= 0.0) break;
    if (budget.Exhausted(tester.num_tests())) {
      out.failure = FailureReason::kBudgetExceeded;
      out.tests_performed = tester.num_tests();
      out.seconds = timer.ElapsedSeconds();
      return out;
    }
    accumulated.push_back(
        ExplanationTester::ModedEdit{t.action.edge, t.mode});
    gap -= t.action.contribution;
    if (gap <= 0.0) {
      graph::NodeId new_rec = graph::kInvalidNode;
      if (tester.TestMixed(accumulated, &new_rec)) {
        out.found = true;
        out.new_rec = new_rec;
        for (const auto& e : accumulated) {
          if (e.mode == Mode::kAdd) {
            out.added.push_back(e.edge);
          } else {
            out.removed.push_back(e.edge);
          }
        }
        out.failure = FailureReason::kNone;
        out.tests_performed = tester.num_tests();
        out.seconds = timer.ElapsedSeconds();
        return out;
      }
    }
  }

  out.failure = FailureReason::kSearchExhausted;
  out.tests_performed = tester.num_tests();
  out.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace emigre::explain
