#include "explain/incremental.h"

#include "explain/internal.h"
#include "obs/trace.h"

namespace emigre::explain {

Explanation RunIncremental(const SearchSpace& space,
                           TesterInterface& tester,
                           const EmigreOptions& opts) {
  EMIGRE_SPAN("incremental");
  internal::SearchDriver search(space, Heuristic::kIncremental, tester, opts);
  if (space.actions.empty()) return search.Finish(FailureReason::kColdStart);

  double gap = space.tau;
  std::vector<graph::EdgeRef> accumulated;
  for (const CandidateAction& action : space.actions) {
    // H is sorted by descending contribution: once we hit a non-positive
    // one, no remaining candidate can help the Why-Not item.
    if (action.contribution <= 0.0) break;
    // On budget expiry the accumulated prefix — the candidate with the
    // smallest remaining gap so far — is the anytime result.
    if (search.StopOnBudget(accumulated, gap)) break;
    accumulated.push_back(action.edge);
    gap -= action.contribution;
    search.Consider();
    if (gap <= 0.0 && search.Test(accumulated)) break;
  }
  return search.Finish(FailureReason::kSearchExhausted);
}

}  // namespace emigre::explain
