#include "explain/powerset.h"

#include <algorithm>

#include "check/invariants.h"
#include "explain/internal.h"
#include "obs/trace.h"

namespace emigre::explain {

Explanation RunPowerset(const SearchSpace& space, TesterInterface& tester,
                        const EmigreOptions& opts) {
  EMIGRE_SPAN("powerset");
  internal::SearchDriver search(space, Heuristic::kPowerset, tester, opts);

  // Prune non-positive contributions (paper Alg. 4 lines 3–7); the actions
  // arrive sorted descending, so the positive prefix is contiguous. Then
  // keep only the strongest `max_subset_nodes` for subset enumeration.
  std::vector<CandidateAction> h;
  for (const CandidateAction& a : space.actions) {
    if (a.contribution <= 0.0) break;
    h.push_back(a);
  }
  if (opts.max_subset_nodes > 0 && h.size() > opts.max_subset_nodes) {
    h.resize(opts.max_subset_nodes);
  }
  if (h.empty()) return search.Finish(FailureReason::kColdStart);

  struct Combo {
    double sum;
    std::vector<size_t> indices;
  };

  const size_t max_size = internal::MaxExplanationSize(h.size(), opts);
  for (size_t size = 1; size <= max_size; ++size) {
    // Materialize all size-`size` combinations with their contribution sums
    // and visit them in descending-sum order (paper: "ordered by
    // contribution" within a size class).
    std::vector<Combo> combos;
    combos.reserve(internal::BinomialCapped(h.size(), size, 1u << 20));
    internal::ForEachCombination(
        h.size(), size, [&](const std::vector<size_t>& idx) {
          double sum = 0.0;
          for (size_t i : idx) sum += h[i].contribution;
          combos.push_back(Combo{sum, idx});
          return true;
        });
    std::sort(combos.begin(), combos.end(),
              [](const Combo& a, const Combo& b) {
                if (a.sum != b.sum) return a.sum > b.sum;
                return a.indices < b.indices;
              });

    // Sums descend: once a combination cannot close the gap, no later one
    // of the same size can either — the TESTable combos are a prefix, which
    // becomes one verification batch.
    std::vector<std::vector<graph::EdgeRef>> batch;
    for (const Combo& combo : combos) {
      if (space.tau - combo.sum > 0.0) break;
      batch.push_back(internal::EdgesOf(h, combo.indices));
    }
    if (search.Verify(std::move(batch), [&](size_t i) {
          return space.tau - combos[i].sum;
        })) {
      break;
    }
  }

  Explanation out = search.Finish(FailureReason::kSearchExhausted);
  if (out.found && !out.degraded &&
      check::ShouldCheck(opts.check_level, check::CheckLevel::kFull)) {
    check::DcheckOk(check::ValidateExplanationInSpace(space, out, opts),
                    "RunPowerset");
  }
  return out;
}

}  // namespace emigre::explain
