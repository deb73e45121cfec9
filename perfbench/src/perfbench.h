// End-to-end Why-Not benchmark: workloads, the timed closed loop, the
// correctness checks and the traced layer-by-layer replay.
//
// The benchmark drives the public `explain::Emigre` facade with wall-clock
// deadlines off and fixed TEST caps, so every build does the same logical
// work for a given seed and only the time changes. See perfbench/README.md.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "data/amazon_lite.h"
#include "explain/emigre.h"
#include "explain/explanation.h"
#include "explain/options.h"
#include "graph/types.h"
#include "util/result.h"
#include "util/status.h"

namespace perfbench {

using emigre::Result;
using emigre::Status;
namespace explain = emigre::explain;
namespace graph = emigre::graph;

/// Graph size. `kTiny` exists for the benchmark's own tests.
enum class Band { kTiny, kSmall, kMedium };

/// One explain call a client issues per question. `auto_mode` runs
/// `ExplainAuto` (Remove first, then Add); otherwise `Explain(mode, ...)`.
struct Method {
  std::string name;
  bool auto_mode = false;
  explain::Mode mode = explain::Mode::kRemove;
  explain::Heuristic heuristic = explain::Heuristic::kIncremental;
};

struct WorkloadSpec {
  std::string name;
  Band band = Band::kSmall;
  /// Closed-loop clients sharing one engine. Each takes the next question,
  /// asks for the user's top-10 (`RankItems`), runs `methods` on the
  /// question, then takes another.
  size_t clients = 1;
  std::vector<Method> methods;
  explain::TesterKind tester = explain::TesterKind::kExact;
  size_t test_threads = 1;
  size_t max_tests = 0;
  /// Users whose top-10 lists seed the question pool (9 questions each).
  /// Sized so that one run asks about one pass of the pool: a run then
  /// covers nearly the same questions on every seed, and only their order
  /// and the rounds it repeats differ.
  size_t question_users = 8;
  /// Set-ups per run; `setup_s` is their median.
  size_t setup_repeats = 3;
  /// Questions re-run through the traced replay for the digest check when
  /// tracing is off (the whole pool is replayed when it is on).
  size_t check_questions = 4;
};

/// The three named workloads (serve-medium, search-small, repair-medium).
std::vector<WorkloadSpec> AllWorkloads();
Result<WorkloadSpec> FindWorkload(std::string_view name);

/// Dataset generation + graph build + engine construction. Held by
/// pointer: the engine keeps a reference to `lite.graph`.
struct Fixture {
  emigre::data::AmazonLiteGraph lite;
  explain::EmigreOptions opts;
  std::unique_ptr<explain::Emigre> engine;
};

struct SetupTimes {
  double generate_s = 0.0;
  double build_graph_s = 0.0;
  double engine_build_s = 0.0;
  double Total() const { return generate_s + build_graph_s + engine_build_s; }
};

/// Builds the workload's band graph and an engine over it.
Result<std::unique_ptr<Fixture>> Setup(const WorkloadSpec& spec,
                                       SetupTimes* times);

struct Question {
  uint32_t id = 0;
  explain::WhyNotQuestion q;
  /// The user's top-10 at generation time (WNI is one of ranks 1..9).
  std::vector<graph::NodeId> top10;
};

/// Seeded question list over a fixed panel of moderate/active users (10..100
/// allowed actions): every rank 1..9 of each user's top-10 as the Why-Not
/// item, in nine seeded rounds of one question per user.
Result<std::vector<Question>> MakeQuestions(const Fixture& fx,
                                            const WorkloadSpec& spec,
                                            uint64_t seed);

/// Result of one explain call.
struct Outcome {
  uint32_t question = 0;  ///< position in the question list
  uint32_t method = 0;
  explain::WhyNotQuestion q;
  Status status;
  explain::Explanation e;
};

/// Canonical text of an outcome over (user, WNI, method, found, mode,
/// edges, new_rec, failure). `tests_performed` is deliberately left out:
/// it depends on the TEST thread count.
std::string OutcomeLine(const Outcome& o);

/// FNV-1a over the outcome lines sorted by (user, WNI, method). Over the
/// whole question pool it does not depend on the seed, which only orders
/// the pool.
uint64_t Digest(std::vector<const Outcome*> outcomes);
std::string DigestHex(uint64_t digest);

/// The untraced closed-loop run.
struct TimedRun {
  /// One outcome per (question, method) of the pool, at
  /// `question * methods + method`: the loop's first call of it, or an
  /// untimed call after the loop for questions the loop did not reach.
  std::vector<Outcome> outcomes;
  /// Calls made of each outcome, timed and untimed.
  std::vector<uint32_t> calls_of;
  /// Explain calls timed in the loop, counting repeats of a wrapped list.
  size_t calls = 0;
  size_t untimed_calls = 0;
  std::vector<double> explain_ms;
  /// `explain_ms` split by method.
  std::vector<std::vector<double>> method_ms;
  std::vector<double> recommend_ms;
  /// Sum over clients of calls / that client's busy time.
  double calls_per_s = 0.0;
  /// Repeated questions whose outcome differed from the first run of them.
  size_t repeat_mismatches = 0;
  /// Recommend results whose top-10 differed from the generated one.
  size_t recommend_mismatches = 0;
};

TimedRun RunTimed(const Fixture& fx, const WorkloadSpec& spec,
                  const std::vector<Question>& questions, double seconds);

/// Exact replay of every found explanation (`check::ValidateExplanation`).
struct Validation {
  /// Per outcome: found and passes the exact replay.
  std::vector<bool> success;
  /// Per outcome: non-OK status, or `verified` but fails the replay.
  std::vector<bool> error;
  std::vector<std::string> messages;
};
Validation ValidateOutcomes(const Fixture& fx,
                            const std::vector<Question>& questions,
                            const std::vector<Outcome>& outcomes,
                            size_t threads);

// --- Traced replay ----------------------------------------------------------

struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  uint32_t question = 0;
  uint32_t method = 0;
  const char* name = "";
  double start_s = 0.0;  ///< since the log's epoch
  double end_s = 0.0;
  bool worker = false;  ///< recorded on a TEST worker thread
};

/// In-memory span store shared by the replay clients and TEST workers.
class SpanLog {
 public:
  SpanLog();
  uint32_t NextId();
  double Now() const;
  void Add(const SpanRecord& span);
  std::vector<SpanRecord> Spans() const;
  /// Writes one JSON object per span.
  Status WriteJsonLines(const std::string& path,
                        const std::string& header) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  uint32_t next_id_ = 1;
  double epoch_ = 0.0;
};

struct Replay {
  std::vector<Outcome> outcomes;  ///< by question order
  double elapsed_s = 0.0;
  /// Search-space sizes |H| of every search space built.
  std::vector<size_t> candidates;
  /// TESTs counted by the testers (all workers) per call.
  size_t tests = 0;
};

/// Replays `subset` of `questions` layer by layer, from the benchmark's own
/// code, in `ExplainAuto`'s order, with `clients` threads. Spans go to
/// `log` (nullptr: none). `test_threads` overrides the workload's TEST
/// fan-out.
Replay RunReplay(const Fixture& fx, const WorkloadSpec& spec,
                 const std::vector<Question>& questions,
                 const std::vector<uint32_t>& subset, size_t clients,
                 size_t test_threads, SpanLog* log);

// --- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Shortest round-trip decimal form of `v`.
std::string FormatNumber(double v);

/// Per-layer metrics derived from a traced replay's spans.
struct SpanSummary {
  std::vector<double> rank_ms, search_space_ms, tester_setup_ms, test_ms,
      heuristic_self_ms;
  size_t queries = 0;  ///< explain calls replayed
  double query_wall_s = 0.0;
  double attributed_s = 0.0;  ///< union of the layer spans under each query
  double test_union_s = 0.0;  ///< TEST time as seen from the client thread
  double test_busy_s = 0.0;   ///< sum of TEST spans over all threads
  double heuristic_s = 0.0;
};
SpanSummary SummarizeSpans(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
