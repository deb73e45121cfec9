#ifndef EMIGRE_EXPLAIN_FAST_TESTER_H_
#define EMIGRE_EXPLAIN_FAST_TESTER_H_

#include <memory>
#include <vector>

#include "explain/tester.h"
#include "graph/csr.h"
#include "graph/csr_overlay.h"
#include "ppr/dynamic.h"
#include "ppr/workspace.h"

namespace emigre::explain {

namespace detail {

/// Deterministic argmax over the maintained estimates: score descending,
/// id ascending on ties, with sub-noise scores floored to zero.
///
/// Signed-residual repairs can leave O(ε)-sized positive estimates on nodes
/// whose true score is exactly zero; the exact tester breaks such all-zero
/// ties by node id. Flooring restores that tie-break: anything below the
/// push noise level counts as unreachable.
///
/// The `item < best` comparison is the enforced index-ascending tie-break
/// of the class contract: on exactly equal scores the lowest item id wins
/// no matter what order `items` arrives in, so exact ties resolve by
/// construction rather than by touch order.
template <typename Eligible, typename Score>
graph::NodeId BestItem(const std::vector<graph::NodeId>& items,
                       graph::NodeId user, double floor, Eligible&& eligible,
                       Score&& score_of) {
  graph::NodeId best = graph::kInvalidNode;
  double best_score = -1.0;
  for (graph::NodeId item : items) {
    if (item == user || !eligible(item)) continue;
    double score = score_of(item);
    if (score < floor) score = 0.0;
    // Same deterministic ordering as RecommendationList: score descending,
    // id ascending on ties.
    if (score > best_score || (score == best_score && item < best)) {
      best = item;
      best_score = score;
    }
  }
  return best;
}

}  // namespace detail

/// \brief Approximate TEST built on incrementally maintained PPR.
///
/// The paper notes that "EMiGRe depends on the complexity of the
/// Personalised Page Rank computation, and can benefit from optimisation on
/// graph-update computation results" (§5.3, citing Zhang–Lofgren–Goel).
/// This tester realizes that optimization: instead of re-running power
/// iteration per candidate, it keeps a counterfactual graph view with a
/// `DynamicForwardPush` state for the user and, per TEST, (1) edits the
/// user's out-edges, (2) locally repairs the push invariant, (3) reads the
/// counterfactual ranking off the maintained estimates, (4) reverts. Every
/// candidate's edits are rooted at the user, so each TEST costs two
/// single-row repairs instead of a full recomputation.
///
/// The counterfactual graph view is a `CsrOverlay` over a CSR graph
/// (shared from the facade or snapshotted once here); the dynamic push repairs
/// through a reusable `PushWorkspace` (O(row + pushes) per TEST), and the
/// eligible-item filter uses the workspace's epoch marks. `Clear()`-based
/// reverts keep the adjacency iteration order fixed across candidates.
///
/// The estimates are ε-accurate rather than exact: two items whose true
/// scores differ by less than ~ε may be mis-ordered, so a verification can
/// differ from the exact `ExplanationTester` on near-ties. Use a tight
/// `PprOptions::epsilon` (default 2.7e-8 already is) and re-verify with the
/// exact tester where a guarantee is required (the evaluation runner does).
///
/// Tie-breaking contract: `CurrentTop` ranks by (score descending, node id
/// ascending) with sub-noise scores floored to zero, so EXACT ties resolve
/// to the lowest item id — the ordering never depends on touch order or
/// adjacency order (see explain_fast_tester_test.cc).
class FastExplanationTester : public TesterInterface {
 public:
  /// Runs on `csr` when given (it must outlive the tester), otherwise on a
  /// snapshot of `base` taken here; `base` is not referenced afterwards.
  /// Runs the initial push through the workspace.
  template <typename G>
  FastExplanationTester(const G& base, graph::NodeId user,
                        graph::NodeId why_not_item, const EmigreOptions& opts,
                        const graph::CsrGraph* csr = nullptr)
      : overlay_(detail::TesterCsr(base, csr, &owned_csr_)),
        user_(user),
        wni_(why_not_item),
        opts_(opts) {
    const graph::CsrGraph& g = overlay_.base();
    for (graph::NodeId n = 0; n < g.NumNodes(); ++n) {
      if (g.NodeType(n) == opts_.rec.item_type) items_.push_back(n);
    }
    dyn_ = std::make_unique<ppr::DynamicForwardPush<graph::CsrOverlay>>(
        overlay_, user, opts_.rec.ppr, &ws_);
  }
  FastExplanationTester(const FastExplanationTester&) = delete;
  FastExplanationTester& operator=(const FastExplanationTester&) = delete;

  /// Applies the edits, reads the top item, reverts. Returns false for
  /// malformed candidates.
  bool TestMixed(const std::vector<ModedEdit>& edits,
                 graph::NodeId* new_rec = nullptr) override {
    EMIGRE_SPAN("test.dynamic");
    EMIGRE_COUNTER("explain.tests.dynamic").Increment();
    ++num_tests_;
    try {
      if (stale_) Rebuild();
      return Apply(edits, new_rec);
    } catch (const DeadlineExceededError&) {
      // The query deadline fired inside a repair push, unwinding
      // mid-protocol: mark the state stale so the next TEST (if any — the
      // search budget normally exits first) rebuilds from the base graph.
      // While the deadline stays expired the rebuild itself throws
      // immediately, keeping post-deadline TESTs O(1).
      EMIGRE_COUNTER("explain.tests.dynamic.deadline").Increment();
      stale_ = true;
      if (new_rec != nullptr) *new_rec = graph::kInvalidNode;
      return false;
    }
  }

  size_t num_tests() const override { return num_tests_; }
  bool IsExact() const override { return false; }

 private:
  bool Apply(const std::vector<ModedEdit>& edits, graph::NodeId* new_rec) {
    // All explanation edits are rooted at the user (Definition 4.2), so a
    // single Before/After pair around the whole batch repairs the one
    // affected transition row. Reverting is an overlay Clear(), which also
    // restores the base adjacency order.
    dyn_->BeforeOutEdgeChange(user_);
    bool ok = true;
    for (const ModedEdit& e : edits) {
      // A foreign-rooted edit is not supported by the fast path.
      if (e.edge.src != user_ ||
          !detail::ApplyEdit(overlay_, e, opts_.add_edge_weight).ok()) {
        ok = false;
        break;
      }
    }

    graph::NodeId top = graph::kInvalidNode;
    if (ok) {
      dyn_->AfterOutEdgeChange(user_);
      top = CurrentTop();
      // Revert, repairing the invariant again.
      dyn_->BeforeOutEdgeChange(user_);
    }
    overlay_.Clear();
    dyn_->AfterOutEdgeChange(user_);

    if (new_rec != nullptr) *new_rec = ok ? top : graph::kInvalidNode;
    return ok && top == wni_;
  }

  /// Reconstructs the counterfactual view and dynamic-push state from the
  /// base graph after a deadline unwind left them mid-repair (stale_).
  /// Throws `DeadlineExceededError` itself while the deadline stays
  /// expired, leaving stale_ set for the next attempt.
  void Rebuild() {
    // Dropping the overlay edits restores the base view; the fresh initial
    // push overwrites the half-repaired workspace state.
    overlay_.Clear();
    dyn_ = std::make_unique<ppr::DynamicForwardPush<graph::CsrOverlay>>(
        overlay_, user_, opts_.rec.ppr, &ws_);
    stale_ = false;
  }

  /// Argmax of the maintained estimates over eligible items, with the
  /// workspace mark bitmap as the eligibility filter.
  graph::NodeId CurrentTop() {
    // O(deg) epoch marks over the user's effective out-neighborhood replace
    // per-item HasEdge probes. The marks share the epoch of the repair that
    // just ran and stay valid until the next one.
    overlay_.ForEachOutEdge(
        user_,
        [&](graph::NodeId dst, graph::EdgeTypeId, double) { ws_.Mark(dst); });
    const double floor = opts_.rec.ppr.epsilon * 100.0;
    return detail::BestItem(
        items_, user_, floor,
        [&](graph::NodeId item) { return !ws_.Marked(item); },
        [&](graph::NodeId item) { return dyn_->Estimate(item); });
  }

  // Declared before overlay_, which it may back.
  std::unique_ptr<graph::CsrGraph> owned_csr_;
  graph::CsrOverlay overlay_;
  graph::NodeId user_;
  graph::NodeId wni_;
  EmigreOptions opts_;
  std::vector<graph::NodeId> items_;  ///< all item-typed nodes, ascending
  size_t num_tests_ = 0;
  /// A deadline unwound a TEST mid-repair: the dynamic-push state no
  /// longer satisfies the invariant and must be rebuilt before the next
  /// TEST.
  bool stale_ = false;

  ppr::PushWorkspace ws_;
  std::unique_ptr<ppr::DynamicForwardPush<graph::CsrOverlay>> dyn_;
};

}  // namespace emigre::explain

#endif  // EMIGRE_EXPLAIN_FAST_TESTER_H_
