#include "explain/brute_force.h"

#include <algorithm>

#include "check/invariants.h"
#include "explain/internal.h"
#include "obs/trace.h"

namespace emigre::explain {

Explanation RunBruteForce(const SearchSpace& space, TesterInterface& tester,
                          const EmigreOptions& opts) {
  EMIGRE_SPAN("brute_force");
  internal::SearchDriver search(space, Heuristic::kBruteForce, tester, opts);
  if (space.actions.empty()) return search.Finish(FailureReason::kColdStart);

  // The universe in edge order (not contribution order): brute force is the
  // model-free oracle, so its enumeration must not depend on Eq. 5/6.
  std::vector<CandidateAction> universe = space.actions;
  std::sort(universe.begin(), universe.end(),
            [](const CandidateAction& a, const CandidateAction& b) {
              return a.edge < b.edge;
            });

  // Combinations are enumerated into fixed-size chunks and each chunk is
  // verified as one batch. The chunk size trades cancellation waste (tests
  // past an early success) against fan-out granularity; it is deliberately
  // independent of the thread count so the candidate stream is identical at
  // any parallelism level. Brute force passes no gap estimate: it has no
  // contribution model to rank untested subsets by, so a budget stop is a
  // bare kBudgetExceeded even in anytime mode.
  constexpr size_t kChunk = 128;
  std::vector<std::vector<graph::EdgeRef>> batch;
  // Verifies the pending chunk; returns false once the search is decided.
  auto flush = [&]() {
    if (batch.empty()) return true;
    bool decided = search.Verify(std::move(batch));
    batch.clear();
    return !decided;
  };

  const size_t max_size = internal::MaxExplanationSize(universe.size(), opts);
  for (size_t size = 1; size <= max_size; ++size) {
    bool finished = internal::ForEachCombination(
        universe.size(), size, [&](const std::vector<size_t>& idx) {
          batch.push_back(internal::EdgesOf(universe, idx));
          return batch.size() < kChunk || flush();
        });
    if (!finished || !flush()) break;
  }

  Explanation out = search.Finish(FailureReason::kSearchExhausted);
  if (out.found &&
      check::ShouldCheck(opts.check_level, check::CheckLevel::kFull)) {
    check::DcheckOk(check::ValidateExplanationInSpace(space, out, opts),
                    "RunBruteForce");
  }
  return out;
}

}  // namespace emigre::explain
