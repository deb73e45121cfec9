#include "explain/tester.h"

namespace emigre::explain {

bool TesterInterface::Test(const std::vector<graph::EdgeRef>& edits,
                           Mode mode, graph::NodeId* new_rec) {
  std::vector<ModedEdit> moded;
  moded.reserve(edits.size());
  for (const graph::EdgeRef& e : edits) moded.push_back(ModedEdit{e, mode});
  return TestMixed(moded, new_rec);
}

TesterInterface::BatchResult TesterInterface::TestBatch(
    const std::vector<std::vector<graph::EdgeRef>>& batch, Mode mode,
    const BudgetFn& budget) {
  // Serial reference semantics: scan front to back, check the budget before
  // each TEST, stop on the first success. ParallelTester reproduces exactly
  // this outcome with worker threads.
  BatchResult result;
  const size_t tests_at_start = num_tests();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (budget && budget(tests_at_start + i)) {
      result.budget_index = i;
      result.cancelled += batch.size() - i;
      return result;
    }
    graph::NodeId new_rec = graph::kInvalidNode;
    ++result.tested;
    if (Test(batch[i], mode, &new_rec)) {
      result.accepted = i;
      result.new_rec = new_rec;
      result.cancelled += batch.size() - i - 1;
      return result;
    }
  }
  return result;
}

}  // namespace emigre::explain
