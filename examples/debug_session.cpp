// A system-developer debugging session (the paper's expert-user story, §1):
// sweep every Why-Not question for a sampled user over the synthetic
// Amazon-style dataset, and for each failure print the §6.4
// meta-explanation (cold start / popular item / out of scope) plus what the
// combined Add+Remove mode (the paper's future-work extension) can rescue.
//
// Run: ./build/examples/debug_session

#include <cstdio>
#include <string>

#include "data/amazon_lite.h"
#include "data/synthetic_amazon.h"
#include "explain/combined.h"
#include "explain/emigre.h"
#include "explain/meta.h"
#include "recsys/recommender.h"

using namespace emigre;  // example code; the library itself never does this

int main() {
  // --- A small synthetic marketplace. ---------------------------------------
  data::SyntheticAmazonOptions gen;
  gen.num_users = 60;
  gen.num_items = 500;
  gen.num_categories = 12;
  gen.min_actions_per_user = 8;
  gen.max_actions_per_user = 40;
  auto dataset = data::GenerateSyntheticAmazon(gen);
  dataset.status().CheckOK();

  data::AmazonLiteOptions lite_opts;
  lite_opts.sample_users = 5;
  lite_opts.min_user_actions = 8;
  auto lite = data::BuildAmazonLite(dataset.value(), lite_opts);
  lite.status().CheckOK();
  const graph::HinGraph& g = lite->graph;
  std::printf("Graph: %zu nodes, %zu edges; %zu sampled users\n\n",
              g.NumNodes(), g.NumEdges(), lite->eval_users.size());

  explain::EmigreOptions opts;
  opts.rec.item_type = lite->item_type;
  opts.allowed_edge_types = {lite->rated_type, lite->reviewed_type};
  opts.add_edge_type = lite->rated_type;
  opts.rec.ppr.epsilon = 1e-7;   // scaled-down graph: relaxed push epsilon
  opts.deadline_seconds = 2.0;   // keep the session interactive

  explain::Emigre engine(g, opts);
  graph::NodeId user = lite->eval_users.front();
  auto ranking = engine.CurrentRanking(user).TopN(6);
  std::printf("Debugging user %s; top-%zu list:\n",
              g.DisplayName(user).c_str(), ranking.size());
  for (size_t i = 0; i < ranking.size(); ++i) {
    std::printf("  %zu. %s (%.5f)\n", i + 1,
                g.DisplayName(ranking.at(i).item).c_str(),
                ranking.at(i).score);
  }

  // --- Why-Not every item below the top. ------------------------------------
  for (size_t rank = 1; rank < ranking.size(); ++rank) {
    graph::NodeId wni = ranking.at(rank).item;
    explain::WhyNotQuestion q{user, wni};
    std::printf("\n== Why not '%s' (rank %zu)?\n",
                g.DisplayName(wni).c_str(), rank + 1);

    for (explain::Mode mode :
         {explain::Mode::kRemove, explain::Mode::kAdd}) {
      auto result =
          engine.Explain(q, mode, explain::Heuristic::kIncremental);
      result.status().CheckOK();
      const explain::Explanation& e = result.value();
      if (e.found) {
        std::printf("  [%s] explanation of size %zu:",
                    std::string(ModeName(mode)).c_str(), e.size());
        for (const auto& edge : e.edges) {
          std::printf(" %s", g.DisplayName(edge.dst).c_str());
        }
        std::printf("\n");
        continue;
      }
      // Failure: produce the §6.4 meta-explanation.
      auto space = engine.BuildSearchSpace(q, mode, e.original_rec);
      space.status().CheckOK();
      explain::MetaExplanation meta =
          explain::DiagnoseFailure(g, space.value(), e, opts);
      std::printf("  [%s] FAILED — %s\n",
                  std::string(ModeName(mode)).c_str(), meta.message.c_str());

      if (meta.reason == explain::FailureReason::kSearchExhausted &&
          mode == explain::Mode::kAdd) {
        auto combined = explain::RunCombinedIncremental(g, q, opts);
        combined.status().CheckOK();
        if (combined->found) {
          std::printf(
              "      combined add/remove mode rescues it: +%zu/-%zu "
              "actions\n",
              combined->added.size(), combined->removed.size());
        } else {
          std::printf("      combined add/remove mode fails too (%s)\n",
                      std::string(
                          FailureReasonName(combined->failure))
                          .c_str());
        }
      }
    }
  }
  return 0;
}
