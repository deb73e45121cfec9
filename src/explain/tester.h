#ifndef EMIGRE_EXPLAIN_TESTER_H_
#define EMIGRE_EXPLAIN_TESTER_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "explain/explanation.h"
#include "explain/options.h"
#include "graph/csr.h"
#include "graph/csr_overlay.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/workspace.h"
#include "recsys/recommender.h"
#include "util/timer.h"

namespace emigre::explain {

/// \brief Interface of the TEST step shared by Algorithms 3, 4 and 5.
///
/// Verifies that a candidate edge set is an actual Why-Not explanation
/// (Definition 4.2): applied to the graph — added in Add mode, removed in
/// Remove mode — it must make the Why-Not item the *top-1* recommendation.
/// Two implementations exist: the exact `ExplanationTester` (reference) and
/// the `FastExplanationTester` (dynamic-push approximation, fast_tester.h).
class TesterInterface {
 public:
  virtual ~TesterInterface() = default;

  /// Returns true iff applying `edits` in `mode` puts the Why-Not item at
  /// the top of the recommendation list. `new_rec`, when non-null, receives
  /// the counterfactual top-1 (whatever it is).
  virtual bool Test(const std::vector<graph::EdgeRef>& edits, Mode mode,
                    graph::NodeId* new_rec = nullptr) = 0;

  /// One edit with its own direction; the combined Add/Remove mode (paper
  /// future work, §6.4 "Out Of Scope Item") mixes both in one candidate.
  struct ModedEdit {
    graph::EdgeRef edge;
    Mode mode = Mode::kRemove;
  };

  /// TEST for mixed candidates: applies each edit in its own direction.
  virtual bool TestMixed(const std::vector<ModedEdit>& edits,
                         graph::NodeId* new_rec = nullptr) = 0;

  /// Number of TEST invocations so far (runtime diagnostics).
  virtual size_t num_tests() const = 0;

  /// True when a positive TEST is an exact guarantee. Approximate testers
  /// return false; search strategies then report their explanations as
  /// unverified so callers (the evaluation runner does) re-check exactly.
  virtual bool IsExact() const = 0;

  /// Sentinel index for "no candidate" in BatchResult.
  static constexpr size_t kNoIndex = std::numeric_limits<size_t>::max();

  /// \brief Outcome of verifying an ordered candidate batch.
  ///
  /// The determinism contract (docs/parallelism.md): `accepted` is the
  /// *lowest-index* candidate that passes TEST, exactly as a serial
  /// front-to-back scan would find — regardless of how many workers ran the
  /// batch or in which order they finished.
  struct BatchResult {
    /// Lowest-index success, or kNoIndex when no candidate passed.
    size_t accepted = kNoIndex;
    /// Counterfactual top-1 of the accepted candidate (kInvalidNode when
    /// none was accepted).
    graph::NodeId new_rec = graph::kInvalidNode;
    /// Lowest index at which the budget predicate fired, or kNoIndex. A
    /// success below this index still wins (the serial scan would have
    /// reached it first); at or above it the batch counts as budget-stopped.
    size_t budget_index = kNoIndex;
    /// TEST calls actually executed for this batch.
    size_t tested = 0;
    /// Candidates skipped without a TEST (cooperative cancellation above an
    /// accepted index, or at/above the budget boundary).
    size_t cancelled = 0;

    /// The batch ended on the budget, not on a success before it.
    bool BudgetHit() const {
      return budget_index != kNoIndex &&
             (accepted == kNoIndex || accepted >= budget_index);
    }
    /// A success that the serial scan would also have reached.
    bool Found() const {
      return accepted != kNoIndex &&
             (budget_index == kNoIndex || accepted < budget_index);
    }
  };

  /// Budget predicate for TestBatch: receives the number of TEST calls a
  /// *serial* scan would have consumed before the candidate about to run
  /// (batch-entry num_tests() + candidate index) and returns true once the
  /// search budget is exhausted. Keyed to the candidate's index rather than
  /// the live counter so parallel and serial runs stop at the same boundary.
  using BudgetFn = std::function<bool(size_t serial_tests_used)>;

  /// Verifies `batch` in order and returns the lowest-index success. The
  /// base implementation is the serial reference loop; `ParallelTester`
  /// overrides it with a fan-out over worker threads. Candidates must all
  /// use the same `mode`.
  virtual BatchResult TestBatch(
      const std::vector<std::vector<graph::EdgeRef>>& batch, Mode mode,
      const BudgetFn& budget = nullptr);
};

namespace detail {

/// The CSR graph a tester runs on: `csr` when the caller shares one (the
/// `Emigre` facade passes its own), otherwise a snapshot of `base` stored
/// in `*owned`.
template <typename G>
const graph::CsrGraph& TesterCsr(const G& base, const graph::CsrGraph* csr,
                                 std::unique_ptr<graph::CsrGraph>* owned) {
  if (csr != nullptr) return *csr;
  *owned = std::make_unique<graph::CsrGraph>(base, 0);
  return **owned;
}

}  // namespace detail

/// \brief The exact TEST: re-runs the full recommender on an overlay.
///
/// This is the expensive but indispensable step whose necessity the paper
/// demonstrates with the Exhaustive-direct baseline (§6.3: a 33% success-
/// rate drop without it).
///
/// The counterfactual recommendations run over a `CsrOverlay` on a CSR
/// graph, with the PPR scratch state held in a reusable `PushWorkspace`.
/// The independent dense replay (`BasicGraphOverlay` plus the allocating
/// `recsys::Recommend`, as in `check::ValidateExplanation`) is the oracle
/// the tests hold this tester to.
class ExplanationTester : public TesterInterface {
 public:
  /// Runs on `csr` when given (it must outlive the tester), otherwise on a
  /// snapshot of `base` taken here; `base` is not referenced afterwards.
  template <typename G>
  ExplanationTester(const G& base, graph::NodeId user,
                    graph::NodeId why_not_item, const EmigreOptions& opts,
                    const graph::CsrGraph* csr = nullptr)
      : overlay_(detail::TesterCsr(base, csr, &owned_csr_)),
        user_(user),
        wni_(why_not_item),
        opts_(opts) {}
  ExplanationTester(const ExplanationTester&) = delete;
  ExplanationTester& operator=(const ExplanationTester&) = delete;

  bool Test(const std::vector<graph::EdgeRef>& edits, Mode mode,
            graph::NodeId* new_rec = nullptr) override {
    std::vector<ModedEdit> moded;
    moded.reserve(edits.size());
    for (const graph::EdgeRef& e : edits) moded.push_back(ModedEdit{e, mode});
    return RunOnce(moded, new_rec);
  }

  bool TestMixed(const std::vector<ModedEdit>& edits,
                 graph::NodeId* new_rec = nullptr) override {
    return RunOnce(edits, new_rec);
  }

  size_t num_tests() const override { return num_tests_; }
  bool IsExact() const override { return true; }

  graph::NodeId user() const { return user_; }
  graph::NodeId why_not_item() const { return wni_; }

 private:
  /// Shared body of Test/TestMixed: applies each edit in its direction and
  /// re-runs the recommender.
  bool RunOnce(const std::vector<ModedEdit>& edits, graph::NodeId* new_rec);

  // Declared before overlay_, which it may back.
  std::unique_ptr<graph::CsrGraph> owned_csr_;
  graph::CsrOverlay overlay_;
  graph::NodeId user_;
  graph::NodeId wni_;
  EmigreOptions opts_;
  size_t num_tests_ = 0;
  ppr::PushWorkspace ws_;
};

inline bool ExplanationTester::RunOnce(const std::vector<ModedEdit>& edits,
                                       graph::NodeId* new_rec) {
  EMIGRE_SPAN("test.exact");
  EMIGRE_COUNTER("explain.tests.exact").Increment();
  ++num_tests_;
  try {
    // The counterfactual is a CsrOverlay over the shared CSR snapshot,
    // cleared rather than reconstructed per TEST, with the PPR scratch state
    // in the reusable workspace.
    overlay_.Clear();
    for (const ModedEdit& e : edits) {
      Status st;
      if (e.mode == Mode::kAdd) {
        st = overlay_.AddEdge(e.edge.src, e.edge.dst, e.edge.type,
                              opts_.add_edge_weight);
      } else {
        st = overlay_.RemoveEdge(e.edge.src, e.edge.dst, e.edge.type);
      }
      if (!st.ok()) {
        // A malformed candidate (duplicate add, missing removal target)
        // can never be a valid explanation.
        if (new_rec != nullptr) *new_rec = graph::kInvalidNode;
        return false;
      }
    }
    graph::NodeId top = recsys::Recommend(overlay_, user_, opts_.rec, &ws_);
    if (new_rec != nullptr) *new_rec = top;
    return top == wni_;
  } catch (const DeadlineExceededError&) {
    // The query deadline fired inside the counterfactual PPR: the candidate
    // is unverifiable within budget, so it fails. The overlay state
    // self-heals (next TEST starts with Clear()); the search's own budget
    // check exits with kBudgetExceeded right after.
    EMIGRE_COUNTER("explain.tests.exact.deadline").Increment();
    if (new_rec != nullptr) *new_rec = graph::kInvalidNode;
    return false;
  }
}

}  // namespace emigre::explain

#endif  // EMIGRE_EXPLAIN_TESTER_H_
