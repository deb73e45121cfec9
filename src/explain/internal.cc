#include "explain/internal.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace emigre::explain::internal {

SearchDriver::SearchDriver(const SearchSpace& space, Heuristic heuristic,
                           TesterInterface& tester, const EmigreOptions& opts)
    : tester_(tester),
      opts_(opts),
      budget_(opts),
      tests_at_start_(tester.num_tests()) {
  out_.mode = space.mode;
  out_.heuristic = heuristic;
  out_.search_space_size = space.actions.size();
}

bool SearchDriver::Verify(std::vector<std::vector<graph::EdgeRef>> batch,
                          const GapFn& gap_of) {
  TesterInterface::BatchResult verdict = tester_.TestBatch(
      batch, out_.mode,
      [this](size_t tests) { return budget_.Exhausted(tests); });
  if (verdict.Found()) {
    out_.candidates_considered += verdict.accepted + 1;
    Accept(std::move(batch[verdict.accepted]), verdict.new_rec,
           tester_.IsExact());
    return true;
  }
  if (verdict.BudgetHit()) {
    // The serial scan checks the budget before counting the candidate.
    // budget_index follows the serial boundary, so the degraded candidate
    // is the same at any thread count.
    const size_t next = verdict.budget_index;
    out_.candidates_considered += next;
    if (gap_of && next < batch.size()) {
      Stop(std::move(batch[next]), gap_of(next));
    } else {
      Stop({}, 0.0);
    }
    return true;
  }
  out_.candidates_considered += batch.size();
  return false;
}

bool SearchDriver::Test(const std::vector<graph::EdgeRef>& edits) {
  graph::NodeId new_rec = graph::kInvalidNode;
  if (!tester_.Test(edits, out_.mode, &new_rec)) return false;
  Accept(edits, new_rec, tester_.IsExact());
  return true;
}

void SearchDriver::Accept(std::vector<graph::EdgeRef> edges,
                          graph::NodeId new_rec, bool verified) {
  decided_ = true;
  out_.found = true;
  out_.verified = verified;
  out_.edges = std::move(edges);
  out_.new_rec = new_rec;
  out_.failure = FailureReason::kNone;
}

bool SearchDriver::StopOnBudget(const std::vector<graph::EdgeRef>& prefix,
                                double gap) {
  if (!budget_.Exhausted(tester_.num_tests())) return false;
  Stop(prefix, gap);
  return true;
}

void SearchDriver::Stop(std::vector<graph::EdgeRef> best, double gap) {
  decided_ = true;
  out_.failure = FailureReason::kBudgetExceeded;
  if (!opts_.anytime || best.empty()) return;
  // Anytime degradation: surface the candidate closest to a flip instead of
  // nothing. Never marked verified; see docs/robustness.md.
  out_.found = true;
  out_.degraded = true;
  out_.verified = false;
  out_.edges = std::move(best);
  out_.degraded_gap = gap > 0.0 ? gap : 0.0;
}

Explanation SearchDriver::Finish(FailureReason reason) {
  if (!decided_) out_.failure = reason;
  out_.tests_performed = tester_.num_tests() - tests_at_start_;
  out_.seconds = timer_.ElapsedSeconds();

  EMIGRE_COUNTER("explain.queries").Increment();
  if (out_.degraded) {
    EMIGRE_COUNTER("explain.degraded").Increment();
  }
  if (out_.found) {
    EMIGRE_COUNTER("explain.queries.found").Increment();
  } else {
    EMIGRE_COUNTER("explain.queries.not_found").Increment();
  }
  EMIGRE_COUNTER("explain.candidates_considered")
      .Increment(out_.candidates_considered);
  EMIGRE_HISTOGRAM("explain.query.seconds").Record(out_.seconds);
  return std::move(out_);
}

size_t MaxExplanationSize(size_t h_size, const EmigreOptions& opts) {
  if (opts.max_explanation_size == 0) return h_size;
  return std::min(h_size, opts.max_explanation_size);
}

std::vector<graph::EdgeRef> EdgesOf(const std::vector<CandidateAction>& h,
                                    const std::vector<size_t>& indices) {
  std::vector<graph::EdgeRef> edges;
  edges.reserve(indices.size());
  for (size_t i : indices) edges.push_back(h[i].edge);
  return edges;
}

size_t BinomialCapped(size_t n, size_t k, size_t cap) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  size_t result = 1;
  for (size_t i = 1; i <= k; ++i) {
    // result *= (n - k + i) / i, with overflow/cap saturation.
    if (result > cap / (n - k + i)) return cap;
    result = result * (n - k + i) / i;
    if (result >= cap) return cap;
  }
  return result;
}

}  // namespace emigre::explain::internal
