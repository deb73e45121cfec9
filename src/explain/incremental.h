#ifndef EMIGRE_EXPLAIN_INCREMENTAL_H_
#define EMIGRE_EXPLAIN_INCREMENTAL_H_

#include "explain/explanation.h"
#include "explain/options.h"
#include "explain/search_space.h"
#include "explain/tester.h"

namespace emigre::explain {

/// \brief Algorithm 3 — the *Incremental* heuristic (runtime-optimized).
///
/// Greedily accumulates candidate actions in descending-contribution order,
/// maintaining the gap estimate τ; each time the estimate indicates the
/// Why-Not item could have overtaken the recommendation (τ ≤ 0 in our gap
/// semantics) it runs the TEST verifier and returns on the first success.
/// The explanation grows monotonically, so this heuristic trades
/// explanation size for speed (paper Fig. 6 vs Table 5).
///
/// Negative-contribution candidates are pruned (they favor `rec`), matching
/// the paper's Line 7 guard. `max_explanation_size` does not cap the
/// prefix: the accumulation stops only on a verified flip, a non-positive
/// contribution or the budget.
Explanation RunIncremental(const SearchSpace& space, TesterInterface& tester,
                           const EmigreOptions& opts);

}  // namespace emigre::explain

#endif  // EMIGRE_EXPLAIN_INCREMENTAL_H_
