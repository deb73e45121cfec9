// The benchmark's own tests, on tiny graphs. The metric-name/unit contract
// is checked end to end by `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {

struct TinyRun {
  WorkloadSpec spec;
  std::unique_ptr<Fixture> fx;
  std::vector<Question> questions;
};

TinyRun MakeTiny(const char* workload, uint64_t seed) {
  TinyRun t;
  t.spec = FindWorkload(workload).value();
  t.spec.band = Band::kTiny;
  SetupTimes times;
  t.fx = Setup(t.spec, &times).value();
  t.questions = MakeQuestions(*t.fx, t.spec, seed).value();
  return t;
}

std::vector<const Outcome*> Pointers(const std::vector<Outcome>& outcomes) {
  std::vector<const Outcome*> out;
  for (const Outcome& o : outcomes) out.push_back(&o);
  return out;
}

std::vector<uint32_t> AllQuestions(const std::vector<Question>& questions) {
  std::vector<uint32_t> ids;
  for (const Question& qu : questions) ids.push_back(qu.id);
  return ids;
}

TEST(PerfbenchTest, UntracedRunAndTracedReplayDigestsAreEqual) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    SCOPED_TRACE(w.name);
    TinyRun t = MakeTiny(w.name.c_str(), 11);
    TimedRun run = RunTimed(*t.fx, t.spec, t.questions, 0.3);
    ASSERT_GT(run.calls, 0u);
    ASSERT_EQ(run.outcomes.size(), t.questions.size() * w.methods.size());
    EXPECT_EQ(run.repeat_mismatches, 0u);
    EXPECT_EQ(run.recommend_mismatches, 0u);
    for (const Outcome& o : run.outcomes) EXPECT_TRUE(o.status.ok());

    SpanLog log;
    Replay replay = RunReplay(*t.fx, t.spec, t.questions,
                              AllQuestions(t.questions), t.spec.clients,
                              t.spec.test_threads, &log);
    EXPECT_EQ(DigestHex(Digest(Pointers(replay.outcomes))),
              DigestHex(Digest(Pointers(run.outcomes))));
    // Every replayed call left a query span with layer spans under it.
    SpanSummary s = SummarizeSpans(log.Spans());
    EXPECT_EQ(s.queries, run.outcomes.size());
    EXPECT_GT(s.search_space_ms.size(), 0u);
    EXPECT_GT(s.attributed_s, 0.0);
    EXPECT_LE(s.attributed_s, s.query_wall_s * (1.0 + 1e-9));
  }
}

TEST(PerfbenchTest, FoundExplanationsPassExactReplay) {
  TinyRun t = MakeTiny("repair-medium", 5);
  TimedRun run = RunTimed(*t.fx, t.spec, t.questions, 0.3);
  Validation v = ValidateOutcomes(*t.fx, t.questions, run.outcomes, 2);
  EXPECT_TRUE(v.messages.empty());
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    EXPECT_FALSE(v.error[i]);
    if (v.success[i]) {
      EXPECT_TRUE(run.outcomes[i].e.found);
    }
  }
}

TEST(PerfbenchTest, SearchSmallDigestDoesNotDependOnTestThreads) {
  TinyRun t = MakeTiny("search-small", 3);
  ASSERT_EQ(t.spec.test_threads, 4u);
  std::vector<uint32_t> subset;
  for (size_t i = 0; i < t.questions.size() && i < 12; ++i) {
    subset.push_back(t.questions[i].id);
  }
  Replay serial =
      RunReplay(*t.fx, t.spec, t.questions, subset, 1, 1, nullptr);
  Replay parallel =
      RunReplay(*t.fx, t.spec, t.questions, subset, 1, 4, nullptr);
  EXPECT_EQ(DigestHex(Digest(Pointers(serial.outcomes))),
            DigestHex(Digest(Pointers(parallel.outcomes))));
  // The parallel workers run at least the serial scan's TESTs.
  EXPECT_GE(parallel.tests, serial.tests);
}

TEST(PerfbenchTest, DigestCoversOutcomeFieldsButNotTestCounts) {
  Outcome a;
  a.e.found = true;
  a.e.edges = {graph::EdgeRef{1, 2, 0}};
  a.e.new_rec = 2;
  Outcome b = a;
  b.e.tests_performed = 99;
  EXPECT_EQ(Digest({&a}), Digest({&b}));
  b.e.new_rec = 3;
  EXPECT_NE(Digest({&a}), Digest({&b}));
  Outcome c = a;
  c.e.edges.push_back(graph::EdgeRef{1, 5, 0});
  EXPECT_NE(Digest({&a}), Digest({&c}));
  // Neither the inputs' order nor the list position matters: the digest
  // sorts by question content, so it does not depend on the seed.
  Outcome d = a;
  d.q.user = 1;
  EXPECT_EQ(Digest({&a, &d}), Digest({&d, &a}));
  Outcome moved = a;
  moved.question = 5;
  EXPECT_EQ(Digest({&a}), Digest({&moved}));
}

TEST(PerfbenchTest, SpanSummarySelfTimeAndUnattributedShare) {
  // query [0, 10): rank [0, 2), heuristic [3, 9) with two overlapping
  // worker TESTs [4, 6) and [5, 8) → TEST union 4, heuristic self 2.
  std::vector<SpanRecord> spans = {
      {1, 0, 0, 0, "query", 0.0, 10.0, false},
      {2, 1, 0, 0, "rank", 0.0, 2.0, false},
      {3, 1, 0, 0, "heuristic", 3.0, 9.0, false},
      {4, 3, 0, 0, "test", 4.0, 6.0, true},
      {5, 3, 0, 0, "test", 5.0, 8.0, true},
  };
  SpanSummary s = SummarizeSpans(spans);
  EXPECT_EQ(s.queries, 1u);
  EXPECT_DOUBLE_EQ(s.query_wall_s, 10.0);
  EXPECT_DOUBLE_EQ(s.attributed_s, 8.0);
  EXPECT_DOUBLE_EQ(s.test_union_s, 4.0);
  EXPECT_DOUBLE_EQ(s.test_busy_s, 5.0);
  ASSERT_EQ(s.heuristic_self_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(s.heuristic_self_ms[0], 2000.0);
}

TEST(PerfbenchTest, NearestRankPercentile) {
  EXPECT_EQ(Percentile({}, 50), 0.0);
  EXPECT_EQ(Percentile({4, 1, 3, 2}, 50), 2.0);
  EXPECT_EQ(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90), 9.0);
  EXPECT_EQ(Percentile({5}, 90), 5.0);
}

}  // namespace
}  // namespace perfbench
