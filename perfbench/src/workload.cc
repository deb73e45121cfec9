// Workload definitions, set-up, question generation, the untraced closed
// loop and the exact-replay correctness check.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <tuple>
#include <utility>

#include "check/invariants.h"
#include "data/synthetic_amazon.h"
#include "perfbench.h"
#include "recsys/recommender.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Seed of the fixed user panel the questions are asked about.
constexpr uint64_t kPanelSeed = 7;

/// SplitMix64 finalizer: spreads small workload seeds over the Rng state.
uint64_t Scramble(uint64_t seed) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

template <typename T>
void Shuffle(std::vector<T>* v, emigre::Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.NextBounded(i)]);
  }
}

/// Runs `fn(i)` for i in [0, n) on `threads` threads (joined before return).
template <typename F>
void ParallelFor(size_t n, size_t threads, F&& fn) {
  threads = std::max<size_t>(1, std::min(threads, n));
  std::atomic<size_t> next{0};
  auto body = [&]() {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(body);
  body();
  for (std::thread& t : pool) t.join();
}

Method Auto(const char* name, explain::Heuristic h) {
  return Method{name, true, explain::Mode::kRemove, h};
}
Method Fixed(const char* name, explain::Mode mode, explain::Heuristic h) {
  return Method{name, false, mode, h};
}

}  // namespace

std::vector<WorkloadSpec> AllWorkloads() {
  using explain::Heuristic;
  using explain::Mode;
  std::vector<WorkloadSpec> all;

  WorkloadSpec serve;
  serve.name = "serve-medium";
  serve.band = Band::kMedium;
  serve.clients = 4;
  serve.methods = {Auto("auto_incremental", Heuristic::kIncremental)};
  serve.tester = explain::TesterKind::kExact;
  serve.test_threads = 1;
  // An exact TEST re-ranks the whole graph (~0.15 s); ExplainAuto may run
  // Remove then Add, so at most 8 TESTs keep any one question small.
  serve.max_tests = 4;
  serve.question_users = 5;
  serve.setup_repeats = 2;
  serve.check_questions = 4;
  all.push_back(serve);

  WorkloadSpec search;
  search.name = "search-small";
  search.band = Band::kSmall;
  search.clients = 1;
  search.methods = {Fixed("add_ex", Mode::kAdd, Heuristic::kExhaustive),
                    Fixed("remove_Powerset", Mode::kRemove,
                          Heuristic::kPowerset),
                    Fixed("remove_brute", Mode::kRemove,
                          Heuristic::kBruteForce)};
  search.tester = explain::TesterKind::kExact;
  search.test_threads = 4;
  // remove_brute usually exhausts the cap; 128 keeps it near a third of
  // the run instead of most of it.
  search.max_tests = 128;
  search.question_users = 6;
  search.setup_repeats = 5;
  search.check_questions = 8;
  all.push_back(search);

  WorkloadSpec repair;
  repair.name = "repair-medium";
  repair.band = Band::kMedium;
  // Four clients give about 70 explain calls in a 15 s run; one gave ~20.
  repair.clients = 4;
  repair.methods = {Fixed("remove_Incremental", Mode::kRemove,
                          Heuristic::kIncremental),
                    Fixed("remove_Powerset", Mode::kRemove,
                          Heuristic::kPowerset)};
  repair.tester = explain::TesterKind::kDynamicPush;
  repair.test_threads = 1;
  repair.max_tests = 32;
  repair.question_users = 4;
  repair.setup_repeats = 2;
  repair.check_questions = 2;
  all.push_back(repair);
  return all;
}

Result<WorkloadSpec> FindWorkload(std::string_view name) {
  std::string known;
  for (WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return std::move(spec);
    known += (known.empty() ? "" : " | ") + spec.name;
  }
  return Status::InvalidArgument("unknown workload '" + std::string(name) +
                                 "' (" + known + ")");
}

Result<std::unique_ptr<Fixture>> Setup(const WorkloadSpec& spec,
                                       SetupTimes* times) {
  emigre::data::SyntheticAmazonOptions gen;
  emigre::data::AmazonLiteOptions lite;
  switch (spec.band) {
    case Band::kTiny:
      gen.num_users = 40;
      gen.num_items = 300;
      gen.num_categories = 8;
      lite.sample_users = 6;
      break;
    case Band::kSmall:
      // The paper-default (scale-1) Amazon-Lite graph, ≈1.9k nodes.
      gen.num_users = 100;
      gen.num_items = 900;
      gen.num_categories = 16;
      lite.sample_users = 15;
      break;
    case Band::kMedium: {
      // The medium band, ≈39k nodes / 326k edges: an LLC-sized graph.
      EMIGRE_ASSIGN_OR_RETURN(gen, emigre::data::SyntheticAmazonPreset(
                                       "medium"));
      lite.sample_users = 15;
      break;
    }
  }
  // The generator and sampling seeds keep their defaults: every run sees
  // the band's one canonical graph (the medium band is 39,262 nodes /
  // 326,394 edges), and the workload seed only orders the questions.

  auto fx = std::make_unique<Fixture>();
  Clock::time_point t = Clock::now();
  EMIGRE_ASSIGN_OR_RETURN(emigre::data::Dataset ds,
                          emigre::data::GenerateSyntheticAmazon(gen));
  times->generate_s = MsSince(t) / 1e3;
  t = Clock::now();
  EMIGRE_ASSIGN_OR_RETURN(fx->lite, emigre::data::BuildAmazonLite(ds, lite));
  times->build_graph_s = MsSince(t) / 1e3;

  t = Clock::now();
  explain::EmigreOptions& opts = fx->opts;
  opts.rec.item_type = fx->lite.item_type;
  opts.allowed_edge_types = {fx->lite.rated_type, fx->lite.reviewed_type};
  opts.add_edge_type = fx->lite.rated_type;
  opts.rec.ppr.epsilon = 1e-7;
  opts.deadline_seconds = 0.0;  // off by design: same work on every build
  opts.max_tests = spec.max_tests;
  opts.tester = spec.tester;
  opts.test_threads = spec.test_threads;
  fx->engine = std::make_unique<explain::Emigre>(fx->lite.graph, opts);
  times->engine_build_s = MsSince(t) / 1e3;
  return fx;
}

Result<std::vector<Question>> MakeQuestions(const Fixture& fx,
                                            const WorkloadSpec& spec,
                                            uint64_t seed) {
  const graph::HinGraph& g = fx.lite.graph;
  std::vector<graph::NodeId> users;
  for (graph::NodeId u : g.NodesOfType(fx.lite.user_type)) {
    size_t actions = 0;
    g.ForEachOutEdge(u, [&](graph::NodeId dst, graph::EdgeTypeId type,
                            double) {
      if (dst != u && fx.opts.IsAllowedEdgeType(type)) ++actions;
    });
    if (actions >= 10 && actions <= 100) users.push_back(u);
  }
  // A fixed panel of users per band (independent of the seed), so that
  // runs on different seeds ask about the same users and differ only in
  // which ranks they ask about and in what order.
  emigre::Rng panel_rng(kPanelSeed);
  Shuffle(&users, panel_rng);
  if (users.size() > spec.question_users) users.resize(spec.question_users);
  if (users.empty()) {
    return Status::FailedPrecondition("no moderate/active users in graph");
  }

  std::vector<std::vector<graph::NodeId>> tops(users.size());
  ParallelFor(users.size(), spec.clients, [&](size_t i) {
    const emigre::recsys::RecommendationList top =
        emigre::recsys::RankItems(g, users[i], fx.opts.rec).TopN(10);
    for (const emigre::recsys::ScoredItem& s : top.items()) {
      tops[i].push_back(s.item);
    }
  });

  // Nine rounds; each round asks every panel user once, in a seeded order.
  // The ranks form a seeded Latin square: over the nine rounds each user is
  // asked about each rank 1..9 once, and within a round the users' ranks
  // are spread over 1..9. Any prefix of the list is therefore balanced over
  // users and ranks, which keeps runs on different seeds comparable.
  emigre::Rng rng(Scramble(seed));
  std::vector<size_t> column(users.size());
  for (size_t i = 0; i < column.size(); ++i) column[i] = i;
  Shuffle(&column, rng);
  const size_t offset = rng.NextBounded(9);
  std::vector<size_t> order = column;
  std::vector<Question> questions;
  for (size_t round = 0; round < 9; ++round) {
    Shuffle(&order, rng);
    for (size_t i : order) {
      const size_t rank = 1 + (column[i] + round + offset) % 9;
      if (rank >= tops[i].size()) continue;
      Question qu;
      qu.id = static_cast<uint32_t>(questions.size());
      qu.q = explain::WhyNotQuestion{users[i], tops[i][rank]};
      qu.top10 = tops[i];
      questions.push_back(std::move(qu));
    }
  }
  return questions;
}

std::string OutcomeLine(const Outcome& o) {
  std::string line = "user=" + std::to_string(o.q.user) +
                     " wni=" + std::to_string(o.q.why_not_item) +
                     " m=" + std::to_string(o.method);
  if (!o.status.ok()) return line + " status=" + o.status.ToString();
  const explain::Explanation& e = o.e;
  line += " found=" + std::to_string(e.found ? 1 : 0);
  line += " mode=" + std::string(explain::ModeName(e.mode));
  line += " edges=";
  for (const graph::EdgeRef& edge : e.edges) {
    line += std::to_string(edge.src) + "-" + std::to_string(edge.dst) + "-" +
            std::to_string(edge.type) + ",";
  }
  line += " new_rec=" + std::to_string(e.new_rec);
  line += " failure=" + std::string(explain::FailureReasonName(e.failure));
  return line;
}

uint64_t Digest(std::vector<const Outcome*> outcomes) {
  std::sort(outcomes.begin(), outcomes.end(),
            [](const Outcome* a, const Outcome* b) {
              return std::make_tuple(a->q.user, a->q.why_not_item,
                                     a->method) <
                     std::make_tuple(b->q.user, b->q.why_not_item,
                                     b->method);
            });
  uint64_t h = 1469598103934665603ull;
  for (const Outcome* o : outcomes) {
    for (char c : OutcomeLine(*o) + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

namespace {

Outcome RunCall(const explain::Emigre& engine, const Question& qu,
                const std::vector<Method>& methods, size_t m) {
  const Method& method = methods[m];
  Result<explain::Explanation> r =
      method.auto_mode ? engine.ExplainAuto(qu.q, method.heuristic)
                       : engine.Explain(qu.q, method.mode, method.heuristic);
  Outcome o;
  o.question = qu.id;
  o.method = static_cast<uint32_t>(m);
  o.q = qu.q;
  if (r.ok()) {
    o.e = std::move(r).value();
  } else {
    o.status = r.status();
  }
  return o;
}

}  // namespace

TimedRun RunTimed(const Fixture& fx, const WorkloadSpec& spec,
                  const std::vector<Question>& questions, double seconds) {
  struct Call {
    size_t slot = 0;  // position in the (wrapped) question stream
    Outcome outcome;
  };
  struct ClientLog {
    std::vector<Call> calls;
    std::vector<double> explain_ms;
    std::vector<double> recommend_ms;
    size_t recommend_mismatches = 0;
    Clock::time_point last_done;
  };
  const explain::Emigre& engine = *fx.engine;
  const size_t num_methods = spec.methods.size();
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<size_t> next{0};
  std::vector<ClientLog> logs(spec.clients);

  auto client = [&](ClientLog& log) {
    log.last_done = start;
    while (Clock::now() < stop) {
      const size_t slot = next.fetch_add(1);
      const Question& qu = questions[slot % questions.size()];
      Clock::time_point t = Clock::now();
      emigre::recsys::RecommendationList top =
          engine.CurrentRanking(qu.q.user).TopN(10);
      log.recommend_ms.push_back(MsSince(t));
      bool same = top.size() == qu.top10.size();
      for (size_t i = 0; same && i < top.size(); ++i) {
        same = top.at(i).item == qu.top10[i];
      }
      if (!same) ++log.recommend_mismatches;
      for (size_t m = 0; m < num_methods; ++m) {
        t = Clock::now();
        Call call{slot, RunCall(engine, qu, spec.methods, m)};
        log.explain_ms.push_back(MsSince(t));
        log.calls.push_back(std::move(call));
      }
      log.last_done = Clock::now();
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < spec.clients; ++c) {
    threads.emplace_back(client, std::ref(logs[c]));
  }
  client(logs[0]);
  for (std::thread& t : threads) t.join();

  TimedRun run;
  run.outcomes.resize(questions.size() * num_methods);
  run.calls_of.assign(run.outcomes.size(), 0);
  run.method_ms.resize(num_methods);
  std::vector<Call*> calls;
  for (ClientLog& log : logs) {
    // Closed-loop throughput: each client's rate over its own busy span, so
    // a client idling while another finishes the last query does not count.
    const double busy =
        std::chrono::duration<double>(log.last_done - start).count();
    if (busy > 0.0) run.calls_per_s += log.calls.size() / busy;
    run.explain_ms.insert(run.explain_ms.end(), log.explain_ms.begin(),
                          log.explain_ms.end());
    for (size_t i = 0; i < log.calls.size(); ++i) {
      run.method_ms[log.calls[i].outcome.method].push_back(log.explain_ms[i]);
    }
    run.recommend_ms.insert(run.recommend_ms.end(), log.recommend_ms.begin(),
                            log.recommend_ms.end());
    run.recommend_mismatches += log.recommend_mismatches;
    for (Call& c : log.calls) calls.push_back(&c);
  }
  run.calls = calls.size();
  // Slots past the first pass repeat earlier questions: their outcomes must
  // match the first run of the same question.
  std::sort(calls.begin(), calls.end(), [](const Call* a, const Call* b) {
    return std::make_pair(a->slot, a->outcome.method) <
           std::make_pair(b->slot, b->outcome.method);
  });
  for (Call* c : calls) {
    const size_t idx = c->outcome.question * num_methods + c->outcome.method;
    if (run.calls_of[idx]++ == 0) {
      run.outcomes[idx] = std::move(c->outcome);
    } else if (OutcomeLine(run.outcomes[idx]) != OutcomeLine(c->outcome)) {
      ++run.repeat_mismatches;
    }
  }

  // Untimed: the questions the loop did not reach, so that the outcomes
  // (and the success rate) always cover the whole pool.
  std::vector<size_t> missing;
  for (size_t q = 0; q < questions.size(); ++q) {
    if (run.calls_of[q * num_methods] == 0) missing.push_back(q);
  }
  ParallelFor(missing.size(), spec.clients, [&](size_t i) {
    const Question& qu = questions[missing[i]];
    for (size_t m = 0; m < num_methods; ++m) {
      run.outcomes[qu.id * num_methods + m] =
          RunCall(engine, qu, spec.methods, m);
      run.calls_of[qu.id * num_methods + m] = 1;
    }
  });
  run.untimed_calls = missing.size() * num_methods;
  return run;
}

Validation ValidateOutcomes(const Fixture& fx,
                            const std::vector<Question>& questions,
                            const std::vector<Outcome>& outcomes,
                            size_t threads) {
  Validation v;
  v.success.assign(outcomes.size(), false);
  v.error.assign(outcomes.size(), false);
  std::vector<std::string> messages(outcomes.size());
  // std::vector<bool> packs bits, so workers write to per-outcome chars.
  std::vector<char> success(outcomes.size(), 0), error(outcomes.size(), 0);
  ParallelFor(outcomes.size(), threads, [&](size_t i) {
    const Outcome& o = outcomes[i];
    if (!o.status.ok()) {
      error[i] = 1;
      messages[i] = OutcomeLine(o);
      return;
    }
    if (!o.e.found) return;
    // Unverified results (the dynamic tester) are re-checked exactly, as
    // the evaluation runner does; only a `verified` one failing the replay
    // is an error.
    Status st = emigre::check::ValidateExplanation(
        fx.lite.graph, questions[o.question].q, o.e, fx.opts);
    success[i] = st.ok() ? 1 : 0;
    if (!st.ok() && o.e.verified) {
      error[i] = 1;
      messages[i] = OutcomeLine(o) + ": " + st.ToString();
    }
  });
  for (size_t i = 0; i < outcomes.size(); ++i) {
    v.success[i] = success[i] != 0;
    v.error[i] = error[i] != 0;
    if (!messages[i].empty()) v.messages.push_back(messages[i]);
  }
  return v;
}

}  // namespace perfbench
