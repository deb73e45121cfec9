#ifndef EMIGRE_EXPLAIN_BRUTE_FORCE_H_
#define EMIGRE_EXPLAIN_BRUTE_FORCE_H_

#include "explain/explanation.h"
#include "explain/options.h"
#include "explain/search_space.h"
#include "explain/tester.h"

namespace emigre::explain {

/// \brief The brute-force oracle baseline of paper §6.2.
///
/// Enumerates every subset of the candidate action universe in ascending
/// size (lexicographic within a size) and TESTs each one, returning the
/// first success — which is therefore a minimum-size explanation. No
/// contribution model, no pruning. In Remove mode the universe is the
/// user's allowed out-edges (the paper's setting); in Add mode it is the
/// Reverse-Push candidate list, which the paper deems prohibitively large —
/// supported here for completeness but expect the budget caps to trigger.
///
/// Used by the evaluation harness both as the success-rate oracle
/// ("a solution exists at all", Fig. 5) and the explanation-size lower
/// bound (Fig. 6).
///
/// Brute force has no contribution model to rank untested subsets by, so
/// it never degrades: with `EmigreOptions::anytime` a budget stop is still a
/// bare `kBudgetExceeded`.
Explanation RunBruteForce(const SearchSpace& space, TesterInterface& tester,
                          const EmigreOptions& opts);

}  // namespace emigre::explain

#endif  // EMIGRE_EXPLAIN_BRUTE_FORCE_H_
