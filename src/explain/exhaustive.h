#ifndef EMIGRE_EXPLAIN_EXHAUSTIVE_H_
#define EMIGRE_EXPLAIN_EXHAUSTIVE_H_

#include <vector>

#include "explain/explanation.h"
#include "explain/options.h"
#include "explain/search_space.h"
#include "explain/tester.h"
#include "graph/csr.h"
#include "graph/hin_graph.h"
#include "ppr/cache.h"

namespace emigre::explain {

/// \brief Algorithm 5 — *Exhaustive Comparison*.
///
/// The top-1 heuristics only compare the Why-Not item against the current
/// recommendation; a candidate that dethrones `rec` may still lose to some
/// third item. The Exhaustive Comparison scores every candidate action
/// against *every* target item t ∈ T (the original top-k recommendation
/// list) via a contribution matrix C, computes per-target switching
/// thresholds
///   Threshold(t) = Σ_{n ∈ N_out(u)} C_{n,t}                        (Eq. 7)
/// and keeps exactly the combinations whose summed contributions beat the
/// threshold in every column — i.e. the gap estimate says WNI overtakes all
/// of T at once. Surviving candidates are verified by TEST in ascending
/// size order (set `direct = true` to skip TEST, the paper's
/// "Exhaustive-direct" baseline that trades ≈33% success rate for speed).
///
/// `targets` is T: the items WNI must dominate (the facade passes the
/// original top-k list minus WNI itself). No sign pruning is applied to C —
/// a candidate that hurts WNI vs. rec can still help against another target
/// (paper §5.2.2).
///
/// Generic over the base graph `G` (the engine's `CsrGraph` or a
/// `HinGraph`); explicitly instantiated in exhaustive.cc.
template <typename G>
Explanation RunExhaustive(
    const G& g, const SearchSpace& space,
    const std::vector<graph::NodeId>& targets, TesterInterface& tester,
    const EmigreOptions& opts, bool direct,
    ppr::ReversePushCache<graph::CsrGraph>* cache = nullptr);

}  // namespace emigre::explain

#endif  // EMIGRE_EXPLAIN_EXHAUSTIVE_H_
