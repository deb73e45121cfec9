#ifndef EMIGRE_EXPLAIN_INTERNAL_H_
#define EMIGRE_EXPLAIN_INTERNAL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "explain/explanation.h"
#include "explain/options.h"
#include "explain/search_space.h"
#include "explain/tester.h"
#include "util/timer.h"

namespace emigre::explain::internal {

/// \brief Shared resource accounting for the search heuristics:
/// wall-clock deadline and TEST-invocation cap.
class SearchBudget {
 public:
  explicit SearchBudget(const EmigreOptions& opts)
      : deadline_(opts.deadline_seconds), max_tests_(opts.max_tests) {
    deadline_.Start();  // the budget counts from search start, not storage
  }

  /// True once any cap is hit. `tests_used` is the tester's counter.
  bool Exhausted(size_t tests_used) const {
    if (max_tests_ > 0 && tests_used >= max_tests_) return true;
    return deadline_.Expired();
  }

 private:
  Deadline deadline_;
  size_t max_tests_;
};

/// \brief The verify-and-decide loop shared by Incremental, Powerset,
/// Exhaustive and brute force (paper Fig. 3, Algorithms 3–5, §6.2).
///
/// The heuristics differ only in how they prune H and order candidates;
/// each hands its candidates over in paper order and says what each one's
/// remaining gap is. The driver runs TEST under the search budget, decides
/// the search on the first verified flip or on budget expiry, and turns that
/// decision into the `Explanation` (degraded best-so-far included).
///
/// One counting rule for every heuristic: `candidates_considered` counts
/// the candidates TESTed, or examined without a TEST (Incremental's
/// prefixes whose gap estimate is still positive, Exhaustive-direct's
/// pick); a candidate the budget stopped before its TEST is not counted.
///
/// `Finish` stamps `tests_performed` (the tester delta) and `seconds` and
/// publishes the query to the process-wide metrics registry
/// (`explain.queries*`, `explain.degraded`, `explain.query.seconds`,
/// `explain.candidates_considered`), so the CLI's `--metrics-out` snapshot
/// deltas and the `Explanation` fields agree by construction.
class SearchDriver {
 public:
  /// Remaining gap estimate of batch candidate `i` (<= 0: estimated flip).
  using GapFn = std::function<double(size_t i)>;

  /// Starts the budget and the clock.
  SearchDriver(const SearchSpace& space, Heuristic heuristic,
               TesterInterface& tester, const EmigreOptions& opts);

  /// TESTs `batch` in order — a ParallelTester fans it across threads and
  /// accepts the lowest-index success, the candidate a serial scan finds —
  /// and returns true once the search is decided: on a success, or when the
  /// budget stopped the batch. In anytime mode a budget stop returns the
  /// first untested candidate, the one a serial scan would have TESTed
  /// next, as the degraded result with gap `gap_of(index)`; without `gap_of`
  /// the search never degrades.
  bool Verify(std::vector<std::vector<graph::EdgeRef>> batch,
              const GapFn& gap_of = nullptr);

  /// Counts one candidate examined outside `Verify`.
  void Consider() { ++out_.candidates_considered; }

  /// TESTs one candidate; on success accepts it and returns true.
  bool Test(const std::vector<graph::EdgeRef>& edits);

  /// Decides the search with `edges` as the explanation.
  void Accept(std::vector<graph::EdgeRef> edges, graph::NodeId new_rec,
              bool verified);

  /// Returns true, deciding the search as `kBudgetExceeded`, once the budget
  /// is exhausted. In anytime mode a non-empty `prefix` becomes the degraded
  /// result with remaining gap `gap`.
  bool StopOnBudget(const std::vector<graph::EdgeRef>& prefix, double gap);

  /// Ends the search; an undecided search fails with `reason`. Call exactly
  /// once.
  Explanation Finish(FailureReason reason);

 private:
  /// Decides the search as `kBudgetExceeded`, degrading to `best` when
  /// anytime mode is on and there is a candidate.
  void Stop(std::vector<graph::EdgeRef> best, double gap);

  TesterInterface& tester_;
  const EmigreOptions& opts_;
  SearchBudget budget_;
  size_t tests_at_start_;
  WallTimer timer_;
  Explanation out_;
  bool decided_ = false;
};

/// Largest explanation the caps admit from an H of `h_size` actions:
/// `min(|H|, max_explanation_size)`, 0 meaning no cap.
size_t MaxExplanationSize(size_t h_size, const EmigreOptions& opts);

/// The edges of `h` at `indices`, in index order.
std::vector<graph::EdgeRef> EdgesOf(const std::vector<CandidateAction>& h,
                                    const std::vector<size_t>& indices);

/// Enumerates k-subsets of {0, ..., n-1} in lexicographic order, invoking
/// `fn(indices)` for each. `fn` returns false to stop early; the function
/// returns false iff stopped early.
template <typename F>
bool ForEachCombination(size_t n, size_t k, F&& fn) {
  if (k > n) return true;
  if (k == 0) {
    std::vector<size_t> empty;
    return fn(static_cast<const std::vector<size_t>&>(empty));
  }
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  for (;;) {
    if (!fn(static_cast<const std::vector<size_t>&>(idx))) return false;
    // Advance to the next lexicographic combination.
    size_t i = k;
    while (i > 0) {
      --i;
      if (idx[i] != i + n - k) break;
      if (i == 0) return true;
    }
    if (idx[i] == i + n - k) return true;
    ++idx[i];
    for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
}

/// Number of k-subsets of an n-set, saturating at `cap` to avoid overflow.
size_t BinomialCapped(size_t n, size_t k, size_t cap);

}  // namespace emigre::explain::internal

#endif  // EMIGRE_EXPLAIN_INTERNAL_H_
