// Anytime graceful degradation (docs/robustness.md): budget expiry with
// `EmigreOptions::anytime` returns the deterministic best-so-far candidate
// flagged `degraded`; serial and parallel verification agree on it; the
// invariant validators refuse to accept it as a proven explanation; and a
// tiny query deadline surfaces as kBudgetExceeded within bounded wall-clock.

#include <gtest/gtest.h>

#include <vector>

#include "check/invariants.h"
#include "explain/emigre.h"
#include "explain/explanation.h"
#include "explain/options.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/timer.h"

namespace emigre::explain {
namespace {

// Two explanations are interchangeable outputs: same outcome, same edges in
// the same order, same degradation flag.
void ExpectSameExplanation(const Explanation& a, const Explanation& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.failure, b.failure);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].src, b.edges[i].src);
    EXPECT_EQ(a.edges[i].dst, b.edges[i].dst);
    EXPECT_EQ(a.edges[i].type, b.edges[i].type);
  }
}

TEST(AnytimeDegradedTest, OffByDefaultBudgetExpiryStaysBareFailure) {
  Rng rng(11);
  test::RandomHin rh = test::MakeRandomHin(rng, 12, 30, 3, 8);
  explain::EmigreOptions opts = test::MakeRandomHinOptions(rh);
  opts.max_tests = 1;  // expire almost immediately
  Emigre engine(rh.g, opts);
  bool saw_budget_failure = false;
  for (graph::NodeId user : rh.users) {
    for (graph::NodeId item : rh.items) {
      Result<Explanation> r =
          engine.Explain(WhyNotQuestion{user, item}, Mode::kRemove,
                         Heuristic::kIncremental);
      if (!r.ok()) continue;  // invalid question for this pair
      EXPECT_FALSE(r->degraded) << "anytime defaults to off";
      if (r->failure == FailureReason::kBudgetExceeded) {
        saw_budget_failure = true;
        EXPECT_FALSE(r->found);
      }
    }
    if (saw_budget_failure) break;
  }
  EXPECT_TRUE(saw_budget_failure);
}

TEST(AnytimeDegradedTest, SerialAndParallelReturnTheSameDegradedResult) {
  Rng rng(23);
  test::RandomHin rh = test::MakeRandomHin(rng, 12, 30, 3, 8);
  explain::EmigreOptions base = test::MakeRandomHinOptions(rh);
  base.anytime = true;
  size_t degraded_seen = 0;
  // Sweep budgets and heuristics; every (question, budget) pair must agree
  // between serial and 4-way parallel verification, degraded or not — the
  // anytime candidate is keyed to the serial budget boundary.
  for (Heuristic h : {Heuristic::kIncremental, Heuristic::kPowerset,
                      Heuristic::kExhaustive}) {
    for (size_t max_tests : {1u, 2u, 3u, 5u, 8u}) {
      explain::EmigreOptions serial = base;
      serial.max_tests = max_tests;
      serial.test_threads = 1;
      explain::EmigreOptions parallel = serial;
      parallel.test_threads = 4;
      Emigre serial_engine(rh.g, serial);
      Emigre parallel_engine(rh.g, parallel);
      for (size_t u = 0; u < 4 && u < rh.users.size(); ++u) {
        for (size_t i = 0; i < 6 && i < rh.items.size(); ++i) {
          SCOPED_TRACE(testing::Message()
                       << "heuristic=" << static_cast<int>(h)
                       << " max_tests=" << max_tests << " user="
                       << rh.users[u] << " wni=" << rh.items[i]);
          WhyNotQuestion q{rh.users[u], rh.items[i]};
          Result<Explanation> rs = serial_engine.Explain(q, Mode::kRemove, h);
          Result<Explanation> rp =
              parallel_engine.Explain(q, Mode::kRemove, h);
          ASSERT_EQ(rs.ok(), rp.ok());
          if (!rs.ok()) continue;
          ExpectSameExplanation(rs.value(), rp.value());
          if (rs->degraded) {
            ++degraded_seen;
            // The degraded contract.
            EXPECT_TRUE(rs->found);
            EXPECT_FALSE(rs->verified);
            EXPECT_EQ(rs->failure, FailureReason::kBudgetExceeded);
            EXPECT_FALSE(rs->edges.empty());
          }
        }
      }
    }
  }
  EXPECT_GT(degraded_seen, 0u) << "the sweep never exercised degradation";
}

TEST(AnytimeDegradedTest, ValidateExplanationRejectsDegradedResults) {
  test::BookGraph bg = test::MakeBookGraph();
  explain::EmigreOptions opts = test::MakeBookOptions(bg);
  Explanation e;
  e.found = true;
  e.degraded = true;
  e.verified = false;
  e.mode = Mode::kRemove;
  e.failure = FailureReason::kBudgetExceeded;
  e.edges.push_back({bg.paul, bg.harry_potter, bg.rated});
  Status st = check::ValidateExplanation(
      bg.g, WhyNotQuestion{bg.paul, bg.candide}, e, opts);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(DeadlineRegressionTest, TinyDeadlineReturnsBudgetExceededQuickly) {
  Rng rng(31);
  // Large enough that an unbounded query takes real work.
  test::RandomHin rh = test::MakeRandomHin(rng, 60, 200, 6, 20);
  explain::EmigreOptions opts = test::MakeRandomHinOptions(rh);
  opts.deadline_seconds = 1e-4;
  opts.tester = TesterKind::kDynamicPush;
  Emigre engine(rh.g, opts);
  WallTimer timer;
  Result<Explanation> r = engine.Explain(
      WhyNotQuestion{rh.users[0], rh.items[rh.items.size() - 1]},
      Mode::kRemove, Heuristic::kIncremental);
  double elapsed = timer.ElapsedSeconds();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->found);
  EXPECT_EQ(r->failure, FailureReason::kBudgetExceeded);
  // The deadline is honored cooperatively inside the push loops, so even a
  // generous bound on the overshoot factor stays far below an un-deadlined
  // run; 5 s also absorbs slow CI machines.
  EXPECT_LT(elapsed, 5.0);
}

}  // namespace
}  // namespace emigre::explain
