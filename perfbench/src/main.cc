// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>] [--commit <id>] [--band tiny]
//
// Sets the workload up, runs its closed loop untraced for --seconds,
// checks every outcome, replays questions layer by layer with spans, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit codes: 0 correct, 1 an output check failed, 2 usage or refused build.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "perfbench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  std::string commit = "unknown";
  bool tiny = false;
};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>] "
               "[--commit <id>] [--band tiny]\n",
               why.c_str());
  return 2;
}

/// Refuses builds whose timings would not describe the shipped library.
std::string BuildRefusal() {
#ifndef NDEBUG
  return "NDEBUG is unset (assertions compiled in); build with "
         "CMAKE_BUILD_TYPE=Release";
#endif
#ifdef EMIGRE_DCHECK_INVARIANTS
  return "EMIGRE_DCHECK_INVARIANTS is compiled in";
#endif
#ifdef EMIGRE_FAULT_INJECTION
  return "EMIGRE_FAULT_INJECTION is compiled in";
#endif
  return "";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string EnvStamp(const Args& args) {
  double load[1] = {0.0};
  if (getloadavg(load, 1) != 1) load[0] = -1.0;
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + JsonString(compiler) +
         ",\"commit\":" + JsonString(args.commit) +
         ",\"loadavg_1m\":" + FormatNumber(load[0]) +
         ",\"workload\":" + JsonString(args.workload) +
         ",\"seed\":" + std::to_string(args.seed) +
         ",\"seconds\":" + FormatNumber(args.seconds) +
         ",\"trace\":" + (args.trace ? "1" : "0") + "}";
}

/// Peak resident set of this process image. VmHWM rather than
/// getrusage's ru_maxrss, which carries the high-water mark of the process
/// that exec'd us (a Python launcher outweighs the small band).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

uint64_t CounterValue(const emigre::obs::MetricsSnapshot& snap,
                      const std::string& name) {
  for (const emigre::obs::CounterSample& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int Run(const Args& args) {
  Result<WorkloadSpec> found = FindWorkload(args.workload);
  if (!found.ok()) return Usage(found.status().ToString());
  WorkloadSpec spec = std::move(found).value();
  if (args.tiny) spec.band = Band::kTiny;  // the benchmark's own tests
  const std::string env = EnvStamp(args);
  std::printf("perfbench.env %s\n", env.c_str());

  // --- Set-up, several times; the last fixture serves the run. ------------
  std::vector<SetupTimes> setups;
  std::unique_ptr<Fixture> fx;
  for (size_t r = 0; r < spec.setup_repeats; ++r) {
    fx.reset();
    SetupTimes times;
    Result<std::unique_ptr<Fixture>> built = Setup(spec, &times);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    fx = std::move(built).value();
    setups.push_back(times);
  }
  auto setup_median = [&](double (*get)(const SetupTimes&)) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(get(t));
    return Median(v);
  };

  Result<std::vector<Question>> made = MakeQuestions(*fx, spec, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench: questions: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  const std::vector<Question>& questions = *made;

  // --- The measured closed loop (tracing off). -----------------------------
  TimedRun run = RunTimed(*fx, spec, questions, args.seconds);
  const double peak_rss_mb = PeakRssMb();
  const emigre::ppr::ReversePushCache<graph::CsrGraph>& engine_cache =
      fx->engine->ppr_cache();

  // --- Correctness, outside the timed section. -----------------------------
  const size_t check_threads =
      std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  Validation valid =
      ValidateOutcomes(*fx, questions, run.outcomes, check_threads);
  // Every explain call made outside the replays counts as attempted; a
  // repeat of a question fails with it.
  size_t successes = 0, attempted = 0, errors = 0;
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    if (valid.success[i]) ++successes;
    attempted += run.calls_of[i];
    if (valid.error[i]) errors += run.calls_of[i];
  }
  for (const std::string& m : valid.messages) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", m.c_str());
  }

  // Replay questions layer by layer and compare digests: the first few
  // with tracing off, the whole pool with it on.
  std::vector<uint32_t> subset;
  for (const Question& qu : questions) {
    if (!args.trace && subset.size() == spec.check_questions) break;
    subset.push_back(qu.id);
  }
  SpanLog log;
  const emigre::obs::MetricsSnapshot before =
      emigre::obs::Registry::Global().Snapshot();
  Replay replay = RunReplay(*fx, spec, questions, subset, spec.clients,
                            spec.test_threads, &log);
  const emigre::obs::MetricsSnapshot after =
      emigre::obs::Registry::Global().Snapshot();
  auto delta = [&](std::initializer_list<const char*> names) {
    double sum = 0.0;
    for (const char* n : names) {
      sum += static_cast<double>(CounterValue(after, n) -
                                 CounterValue(before, n));
    }
    return sum;
  };

  // The replayed outcomes must match the loop's, call by call.
  std::vector<const Outcome*> run_subset, replay_all;
  size_t replay_mismatches = 0;
  for (const Outcome& o : replay.outcomes) {
    const Outcome& timed =
        run.outcomes[o.question * spec.methods.size() + o.method];
    run_subset.push_back(&timed);
    replay_all.push_back(&o);
    if (OutcomeLine(timed) != OutcomeLine(o)) {
      ++replay_mismatches;
      std::fprintf(stderr, "perfbench: replay mismatch: %s vs %s\n",
                   OutcomeLine(o).c_str(), OutcomeLine(timed).c_str());
    }
  }
  std::vector<const Outcome*> pool;
  for (const Outcome& o : run.outcomes) pool.push_back(&o);
  const std::string pool_digest = DigestHex(Digest(pool));
  const std::string subset_digest = DigestHex(Digest(run_subset));
  const std::string replay_digest = DigestHex(Digest(replay_all));

  // With a TEST fan-out, the traced run also replays serially: the outcomes
  // must not depend on the thread count, and the serial TEST count is the
  // useful work the parallel workers did.
  double serial_tests = static_cast<double>(replay.tests);
  std::string serial_digest = "-";
  if (args.trace && spec.test_threads != 1) {
    Replay serial = RunReplay(*fx, spec, questions, subset, spec.clients, 1,
                              nullptr);
    serial_tests = static_cast<double>(serial.tests);
    std::vector<const Outcome*> serial_all;
    for (const Outcome& o : serial.outcomes) serial_all.push_back(&o);
    serial_digest = DigestHex(Digest(serial_all));
    if (serial_digest != replay_digest) ++replay_mismatches;
  }

  std::printf(
      "perfbench.digest workload=%s questions=%zu outcomes=%zu pool=%s "
      "replayed_questions=%zu run_subset=%s replay=%s serial=%s\n",
      spec.name.c_str(), questions.size(), run.outcomes.size(),
      pool_digest.c_str(), subset.size(), subset_digest.c_str(),
      replay_digest.c_str(), serial_digest.c_str());
  if (!args.spans_out.empty()) {
    Status st = log.WriteJsonLines(args.spans_out, env);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_median([](const SetupTimes& t) { return t.Total(); }),
         "s"},
        {"explain_qps", run.calls_per_s, "1/s"},
        {"explain_p50_ms", Percentile(run.explain_ms, 50), "ms"},
        {"explain_p90_ms", Percentile(run.explain_ms, 90), "ms"},
        {"recommend_p50_ms", Median(run.recommend_ms), "ms"},
        {"success_rate",
         Ratio(static_cast<double>(successes),
               static_cast<double>(run.outcomes.size())),
         "ratio"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    std::printf(
        "perfbench.samples explain=%zu recommend=%zu untimed_calls=%zu\n",
        run.explain_ms.size(), run.recommend_ms.size(), run.untimed_calls);
    for (size_t m = 0; m < spec.methods.size(); ++m) {
      std::printf("perfbench.method %s calls=%zu p50_ms=%s p90_ms=%s\n",
                  spec.methods[m].name.c_str(), run.method_ms[m].size(),
                  FormatNumber(Percentile(run.method_ms[m], 50)).c_str(),
                  FormatNumber(Percentile(run.method_ms[m], 90)).c_str());
    }
    std::printf("perfbench.metric error_rate %s ratio\n",
                FormatNumber(Ratio(static_cast<double>(errors),
                                   static_cast<double>(attempted)))
                    .c_str());
  } else {
    const SpanSummary s = SummarizeSpans(log.Spans());
    const double queries = static_cast<double>(s.queries);
    const double untraced_qps = run.calls_per_s;
    const double traced_qps = Ratio(queries, replay.elapsed_s);
    double candidates = 0.0;
    for (size_t c : replay.candidates) candidates += static_cast<double>(c);
    const double cache_gets = static_cast<double>(
        engine_cache.hits() + engine_cache.misses() + engine_cache.races());
    metrics = {
        {"data.generate_s",
         setup_median([](const SetupTimes& t) { return t.generate_s; }), "s"},
        {"data.build_graph_s",
         setup_median([](const SetupTimes& t) { return t.build_graph_s; }),
         "s"},
        {"graph.nodes", static_cast<double>(fx->lite.graph.NumNodes()),
         "count"},
        {"graph.edges", static_cast<double>(fx->lite.graph.NumEdges()),
         "count"},
        {"graph.engine_build_s",
         setup_median([](const SetupTimes& t) { return t.engine_build_s; }),
         "s"},
        {"recsys.rank_ms.p50", Percentile(s.rank_ms, 50), "ms"},
        {"recsys.rank_ms.p90", Percentile(s.rank_ms, 90), "ms"},
        {"recsys.rank_calls_per_query",
         Ratio(static_cast<double>(s.rank_ms.size()), queries), "count"},
        {"ppr.power.iterations_per_call",
         Ratio(delta({"ppr.power.iterations"}), delta({"ppr.power.calls"})),
         "count"},
        {"ppr.cache.hit_ratio",
         Ratio(static_cast<double>(engine_cache.hits()), cache_gets),
         "ratio"},
        {"ppr.cache.misses", static_cast<double>(engine_cache.misses()),
         "count"},
        {"ppr.cache.races", static_cast<double>(engine_cache.races()),
         "count"},
        {"ppr.rlp.pushes_per_query",
         Ratio(delta({"ppr.rlp.pushes", "ppr.rlp.kernel.pushes",
                      "ppr.rlp.fast.pushes",
                      "ppr.rlp.fast.batch.column_pushes"}),
               queries),
         "count"},
        {"ppr.dyn.refine_pushes_per_test",
         Ratio(delta({"ppr.dyn.refine_pushes", "ppr.dyn.fast.refine_pushes"}),
               delta({"explain.tests.dynamic"})),
         "count"},
        {"explain.search_space_ms.p50", Percentile(s.search_space_ms, 50),
         "ms"},
        {"explain.search_space_ms.p90", Percentile(s.search_space_ms, 90),
         "ms"},
        {"explain.search_space.candidates_mean",
         Ratio(candidates, static_cast<double>(replay.candidates.size())),
         "count"},
        {"explain.tester_setup_ms.p50", Percentile(s.tester_setup_ms, 50),
         "ms"},
        {"explain.test_ms.p50", Percentile(s.test_ms, 50), "ms"},
        {"explain.test_ms.p90", Percentile(s.test_ms, 90), "ms"},
        {"explain.tests_per_query",
         Ratio(static_cast<double>(replay.tests), queries), "count"},
        {"explain.test_share", Ratio(s.test_union_s, s.query_wall_s),
         "ratio"},
        {"explain.heuristic_self_ms.p50", Percentile(s.heuristic_self_ms, 50),
         "ms"},
        {"explain.parallel.useful_ratio",
         Ratio(serial_tests, static_cast<double>(replay.tests)), "ratio"},
        {"explain.parallel.worker_busy_share",
         Ratio(s.test_busy_s,
               static_cast<double>(spec.test_threads) * s.heuristic_s),
         "ratio"},
        {"trace.unattributed_share", 1.0 - Ratio(s.attributed_s, s.query_wall_s),
         "ratio"},
        {"trace.overhead_share", 1.0 - Ratio(traced_qps, untraced_qps),
         "ratio"},
        {"trace.replay_mismatches", static_cast<double>(replay_mismatches),
         "count"},
    };
    std::printf("perfbench.samples traced_queries=%zu test_spans=%zu\n",
                s.queries, s.test_ms.size());
  }
  for (const Metric& m : metrics) {
    std::printf("perfbench.metric %s %s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }

  const size_t failed = errors + run.repeat_mismatches;
  const bool correct = failed == 0 && replay_mismatches == 0 &&
                       run.recommend_mismatches == 0 && run.calls > 0;
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: INCORRECT: errors=%zu replay_mismatches=%zu "
                 "repeat_mismatches=%zu recommend_mismatches=%zu calls=%zu\n",
                 errors, replay_mismatches, run.repeat_mismatches,
                 run.recommend_mismatches, run.calls);
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", " : "") + JsonString(metrics[i].name) +
            ": {\"value\": " + FormatNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  const std::string refusal = perfbench::BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n",
                 refusal.c_str());
    return 2;
  }
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--band") {
      if (value != "tiny") return Usage("bad --band " + value);
      args.tiny = true;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) return Usage("--workload is required");
  return perfbench::Run(args);
}
