// The traced replay: each explain call re-run layer by layer from the
// benchmark's own code, with an in-memory span around every layer call,
// plus the span arithmetic behind the per-layer metrics.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <exception>
#include <fstream>
#include <map>
#include <thread>
#include <utility>

#include "explain/brute_force.h"
#include "explain/exhaustive.h"
#include "explain/fast_tester.h"
#include "explain/incremental.h"
#include "explain/parallel_tester.h"
#include "explain/powerset.h"
#include "explain/search_space.h"
#include "explain/tester.h"
#include "perfbench.h"
#include "ppr/cache.h"
#include "recsys/recommender.h"
#include "util/timer.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSinceEpoch() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// The innermost open span of the calling thread (0 = none).
thread_local uint32_t tls_open_span = 0;

/// RAII span on the calling thread; a no-op without a log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t question,
             uint32_t method)
      : log_(log) {
    if (log_ == nullptr) return;
    rec_.id = log_->NextId();
    rec_.parent = tls_open_span;
    rec_.question = question;
    rec_.method = method;
    rec_.name = name;
    saved_ = tls_open_span;
    tls_open_span = rec_.id;
    rec_.start_s = log_->Now();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    rec_.end_s = log_->Now();
    tls_open_span = saved_;
    log_->Add(rec_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return rec_.id; }

 private:
  SpanLog* log_;
  SpanRecord rec_;
  uint32_t saved_ = 0;
};

/// Where a TEST span belongs: the heuristic span of the current call. TEST
/// workers of a ParallelTester have no open span of their own, so they
/// read the parent from here.
struct TestContext {
  SpanLog* log = nullptr;
  uint32_t question = 0;
  uint32_t method = 0;
  std::atomic<uint32_t> heuristic_span{0};
  std::thread::id client;
};

/// Timing decorator: a TEST span around every call into the wrapped
/// tester. Batches go through the base class's serial loop, which calls
/// `Test` per candidate, so each candidate gets its own span.
class TimedTester : public explain::TesterInterface {
 public:
  TimedTester(std::unique_ptr<explain::TesterInterface> inner,
              const TestContext* ctx)
      : inner_(std::move(inner)), ctx_(ctx) {}

  bool Test(const std::vector<graph::EdgeRef>& edits, explain::Mode mode,
            graph::NodeId* new_rec = nullptr) override {
    Recorder span(ctx_);
    return inner_->Test(edits, mode, new_rec);
  }
  bool TestMixed(const std::vector<ModedEdit>& edits,
                 graph::NodeId* new_rec = nullptr) override {
    Recorder span(ctx_);
    return inner_->TestMixed(edits, new_rec);
  }
  size_t num_tests() const override { return inner_->num_tests(); }
  bool IsExact() const override { return inner_->IsExact(); }

 private:
  class Recorder {
   public:
    explicit Recorder(const TestContext* ctx) : ctx_(ctx) {
      if (ctx_->log != nullptr) start_ = ctx_->log->Now();
    }
    ~Recorder() {
      if (ctx_->log == nullptr) return;
      SpanRecord rec;
      rec.id = ctx_->log->NextId();
      rec.parent = ctx_->heuristic_span.load(std::memory_order_relaxed);
      rec.question = ctx_->question;
      rec.method = ctx_->method;
      rec.name = "test";
      rec.start_s = start_;
      rec.end_s = ctx_->log->Now();
      rec.worker = std::this_thread::get_id() != ctx_->client;
      ctx_->log->Add(rec);
    }
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

   private:
    const TestContext* ctx_;
    double start_ = 0.0;
  };

  std::unique_ptr<explain::TesterInterface> inner_;
  const TestContext* ctx_;
};

/// Replays one explain call; mirrors `EmigreT::Explain` / `ExplainAuto`.
class CallReplayer {
 public:
  CallReplayer(const Fixture& fx, const explain::EmigreOptions& opts,
               emigre::ppr::ReversePushCache<graph::CsrGraph>* cache,
               SpanLog* log)
      : fx_(fx), opts_(opts), cache_(cache), log_(log) {}

  Result<explain::Explanation> Run(const Question& qu, uint32_t method,
                                   const Method& m) {
    try {
      if (!m.auto_mode) return Once(qu, method, m.mode, m.heuristic);
      // ExplainAuto: Remove first when the user has allowed actions, then
      // Add.
      const graph::HinGraph& g = fx_.lite.graph;
      size_t allowed_actions = 0;
      if (g.IsValidNode(qu.q.user)) {
        g.ForEachOutEdge(qu.q.user, [&](graph::NodeId dst,
                                        graph::EdgeTypeId type, double) {
          if (dst != qu.q.user && opts_.IsAllowedEdgeType(type)) {
            ++allowed_actions;
          }
        });
      }
      if (allowed_actions > 0) {
        EMIGRE_ASSIGN_OR_RETURN(
            explain::Explanation removal,
            Once(qu, method, explain::Mode::kRemove, m.heuristic));
        if (removal.found && !removal.degraded) return removal;
        if (removal.found) {
          EMIGRE_ASSIGN_OR_RETURN(
              explain::Explanation addition,
              Once(qu, method, explain::Mode::kAdd, m.heuristic));
          if (addition.found && !addition.degraded) return addition;
          return removal;
        }
      }
      return Once(qu, method, explain::Mode::kAdd, m.heuristic);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("replay failure: ") + e.what());
    }
  }

  size_t tests() const { return tests_; }
  const std::vector<size_t>& candidates() const { return candidates_; }

 private:
  Result<explain::Explanation> Once(const Question& qu, uint32_t method,
                                    explain::Mode mode,
                                    explain::Heuristic heuristic) {
    const graph::HinGraph& g = fx_.lite.graph;
    const explain::Emigre& engine = *fx_.engine;
    const explain::WhyNotQuestion& q = qu.q;
    if (!g.IsValidNode(q.user) || !g.IsValidNode(q.why_not_item)) {
      return Status::InvalidArgument("invalid question node");
    }
    emigre::recsys::RecommendationList ranking;
    {
      ScopedSpan span(log_, "rank", qu.id, method);
      ranking = emigre::recsys::RankItems(g, q.user, opts_.rec);
    }
    const graph::NodeId rec = ranking.Top();
    EMIGRE_RETURN_IF_ERROR(engine.ValidateQuestion(q, rec));

    Result<explain::SearchSpace> built = [&] {
      ScopedSpan span(log_, "search_space", qu.id, method);
      return mode == explain::Mode::kRemove
                 ? explain::BuildRemoveSearchSpace(g, q.user, rec,
                                                   q.why_not_item, opts_,
                                                   cache_)
                 : explain::BuildAddSearchSpace(g, q.user, rec,
                                                q.why_not_item, opts_, cache_);
    }();
    EMIGRE_ASSIGN_OR_RETURN(explain::SearchSpace space, std::move(built));
    candidates_.push_back(space.actions.size());

    // The facade runs the TEST path under a (here unlimited) deadline.
    emigre::Deadline deadline(opts_.deadline_seconds);
    deadline.Start();
    explain::EmigreOptions eopts = opts_;
    eopts.rec.ppr.deadline = &deadline;
    TestContext ctx;
    ctx.log = log_;
    ctx.question = qu.id;
    ctx.method = method;
    ctx.client = std::this_thread::get_id();
    auto make_tester =
        [&]() -> std::unique_ptr<explain::TesterInterface> {
      std::unique_ptr<explain::TesterInterface> inner;
      if (opts_.tester == explain::TesterKind::kDynamicPush) {
        inner = std::make_unique<explain::FastExplanationTester>(
            g, q.user, q.why_not_item, eopts, &engine.csr());
      } else {
        inner = std::make_unique<explain::ExplanationTester>(
            g, q.user, q.why_not_item, eopts, &engine.csr());
      }
      return std::make_unique<TimedTester>(std::move(inner), &ctx);
    };
    std::unique_ptr<explain::TesterInterface> tester;
    {
      ScopedSpan span(log_, "tester_setup", qu.id, method);
      if (opts_.test_threads != 1) {
        tester = std::make_unique<explain::ParallelTester>(
            make_tester, opts_.test_threads);
      } else {
        tester = make_tester();
      }
    }

    explain::Explanation result;
    {
      ScopedSpan span(log_, "heuristic", qu.id, method);
      ctx.heuristic_span.store(span.id(), std::memory_order_relaxed);
      switch (heuristic) {
        case explain::Heuristic::kIncremental:
          result = explain::RunIncremental(space, *tester, opts_);
          break;
        case explain::Heuristic::kPowerset:
          result = explain::RunPowerset(space, *tester, opts_);
          break;
        case explain::Heuristic::kExhaustive:
        case explain::Heuristic::kExhaustiveDirect: {
          std::vector<graph::NodeId> targets;
          const size_t k = opts_.exhaustive_targets > 0
                               ? opts_.exhaustive_targets
                               : ranking.size();
          for (size_t i = 0; i < ranking.size() && targets.size() < k; ++i) {
            targets.push_back(ranking.at(i).item);
          }
          result = explain::RunExhaustive(
              g, space, targets, *tester, opts_,
              heuristic == explain::Heuristic::kExhaustiveDirect, cache_);
          break;
        }
        case explain::Heuristic::kBruteForce:
          result = explain::RunBruteForce(space, *tester, opts_);
          break;
      }
    }
    tests_ += tester->num_tests();
    result.original_rec = rec;
    return result;
  }

  const Fixture& fx_;
  const explain::EmigreOptions& opts_;
  emigre::ppr::ReversePushCache<graph::CsrGraph>* cache_;
  SpanLog* log_;
  size_t tests_ = 0;
  std::vector<size_t> candidates_;
};

/// Total length of the union of [start, end) intervals.
double UnionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0, cur_end = -1.0;
  for (const auto& [s, e] : intervals) {
    if (s > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

}  // namespace

SpanLog::SpanLog() : epoch_(SecondsSinceEpoch()) {}

uint32_t SpanLog::NextId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

double SpanLog::Now() const { return SecondsSinceEpoch() - epoch_; }

void SpanLog::Add(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> SpanLog::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Status SpanLog::WriteJsonLines(const std::string& path,
                               const std::string& header) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write spans to " + path);
  out << header << "\n";
  for (const SpanRecord& s : Spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"question\":" << s.question << ",\"method\":" << s.method
        << ",\"name\":\"" << s.name << "\",\"start_s\":"
        << FormatNumber(s.start_s) << ",\"end_s\":" << FormatNumber(s.end_s)
        << ",\"worker\":" << (s.worker ? "true" : "false") << "}\n";
  }
  out.close();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

Replay RunReplay(const Fixture& fx, const WorkloadSpec& spec,
                 const std::vector<Question>& questions,
                 const std::vector<uint32_t>& subset, size_t clients,
                 size_t test_threads, SpanLog* log) {
  explain::EmigreOptions opts = fx.opts;
  opts.test_threads = test_threads;
  // A cache the benchmark owns, over the engine's CSR snapshot.
  emigre::ppr::ReversePushCache<graph::CsrGraph> cache(fx.engine->csr(),
                                                       opts.rec.ppr);
  Replay replay;
  replay.outcomes.resize(subset.size() * spec.methods.size());
  std::atomic<size_t> next{0};
  std::mutex merge_mutex;
  const Clock::time_point start = Clock::now();
  auto client = [&]() {
    CallReplayer replayer(fx, opts, &cache, log);
    for (size_t i = next.fetch_add(1); i < subset.size();
         i = next.fetch_add(1)) {
      const Question& qu = questions[subset[i]];
      {
        ScopedSpan span(log, "recommend", qu.id, 0);
        (void)emigre::recsys::RankItems(fx.lite.graph, qu.q.user, opts.rec)
            .TopN(10);
      }
      for (size_t m = 0; m < spec.methods.size(); ++m) {
        Outcome& o = replay.outcomes[i * spec.methods.size() + m];
        o.question = qu.id;
        o.method = static_cast<uint32_t>(m);
        o.q = qu.q;
        ScopedSpan span(log, "query", qu.id, o.method);
        Result<explain::Explanation> r =
            replayer.Run(qu, o.method, spec.methods[m]);
        if (r.ok()) {
          o.e = std::move(r).value();
        } else {
          o.status = r.status();
        }
      }
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    replay.tests += replayer.tests();
    replay.candidates.insert(replay.candidates.end(),
                             replayer.candidates().begin(),
                             replayer.candidates().end());
  };
  clients = std::max<size_t>(1, std::min(clients, subset.size()));
  std::vector<std::thread> threads;
  for (size_t c = 1; c < clients; ++c) threads.emplace_back(client);
  client();
  for (std::thread& t : threads) t.join();
  replay.elapsed_s = std::chrono::duration<double>(Clock::now() - start)
                         .count();
  return replay;
}

SpanSummary SummarizeSpans(const std::vector<SpanRecord>& spans) {
  SpanSummary s;
  std::map<uint32_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans) {
    children[span.parent].push_back(&span);
  }
  auto child_intervals = [&](uint32_t id, const char* only) {
    std::vector<std::pair<double, double>> out;
    auto it = children.find(id);
    if (it == children.end()) return out;
    for (const SpanRecord* c : it->second) {
      if (only == nullptr || std::string_view(c->name) == only) {
        out.emplace_back(c->start_s, c->end_s);
      }
    }
    return out;
  };
  for (const SpanRecord& span : spans) {
    const double ms = (span.end_s - span.start_s) * 1e3;
    const std::string_view name = span.name;
    if (name == "rank" || name == "recommend") {
      s.rank_ms.push_back(ms);
    } else if (name == "search_space") {
      s.search_space_ms.push_back(ms);
    } else if (name == "tester_setup") {
      s.tester_setup_ms.push_back(ms);
    } else if (name == "test") {
      s.test_ms.push_back(ms);
      s.test_busy_s += ms / 1e3;
    } else if (name == "heuristic") {
      const double tests = UnionLength(child_intervals(span.id, "test"));
      s.heuristic_self_ms.push_back(ms - tests * 1e3);
      s.test_union_s += tests;
      s.heuristic_s += ms / 1e3;
    } else if (name == "query") {
      ++s.queries;
      s.query_wall_s += ms / 1e3;
      // The layer spans directly under a query run one after another on
      // the client thread; whatever they do not cover is unattributed.
      s.attributed_s += UnionLength(child_intervals(span.id, nullptr));
    }
  }
  return s;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx =
      std::min(values.size() - 1,
               static_cast<size_t>(std::max(1.0, rank)) - 1);
  return values[idx];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

}  // namespace perfbench
