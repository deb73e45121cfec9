#ifndef EMIGRE_EXPLAIN_EMIGRE_H_
#define EMIGRE_EXPLAIN_EMIGRE_H_

#include <memory>

#include "explain/explanation.h"
#include "explain/options.h"
#include "graph/csr.h"
#include "graph/hin_graph.h"
#include "ppr/cache.h"
#include "recsys/rec_list.h"
#include "util/result.h"

namespace emigre::graph {
class CsrSnapshotView;
}  // namespace emigre::graph

namespace emigre::explain {

/// \brief The EMiGRe framework facade (paper Fig. 3).
///
/// Wires the full pipeline for one Why-Not question: validate the question
/// (Definition 4.1) → run the recommender → build the mode's search space
/// (Algorithm 1 or 2) → compute the explanation with the selected heuristic
/// (Algorithms 3/4/5 or a baseline) → return the explanation with
/// diagnostics.
///
/// The engine's only graph is its own `CsrGraph`: a snapshot of an
/// in-memory `HinGraph`, or an alias of an mmap-backed
/// `graph::CsrSnapshotView`'s columns. Every read of the pipeline — the
/// ranking, question validation, both search spaces, the TESTs and the
/// reverse-push cache — goes to it. The snapshot copies each node's out-
/// and in-edges in the source's order, so every sweep and push does the
/// same arithmetic as over the source. The engine keeps no reference to the
/// source: it may be mutated or destroyed once the constructor returns.
///
/// Thread-safety: the engine is immutable after construction; concurrent
/// `Explain` calls are safe.
///
/// ```
/// explain::EmigreOptions opts;
/// opts.rec.item_type = g.FindNodeType("item");
/// opts.add_edge_type = g.FindEdgeType("rated");
/// opts.allowed_edge_types = {g.FindEdgeType("rated")};
/// explain::Emigre engine(g, opts);
/// auto result = engine.Explain({user, missing_item}, explain::Mode::kAdd,
///                              explain::Heuristic::kIncremental);
/// ```
class Emigre {
 public:
  /// Snapshots `g` once. At `CheckLevel::kFull` the source is validated
  /// here, type registries included.
  Emigre(const graph::HinGraph& g, EmigreOptions opts);

  /// Aliases the view's mapped columns (no copy); the mapping stays pinned
  /// for the engine's lifetime. At `CheckLevel::kFull` the view is
  /// validated here.
  Emigre(const graph::CsrSnapshotView& view, EmigreOptions opts);

  /// Computes a Why-Not explanation for `q` using the given mode and
  /// heuristic. Fails with InvalidArgument when `q` violates Definition 4.1
  /// (WNI not an item, already interacted with, or already the top
  /// recommendation). A valid question that admits no explanation returns
  /// an Explanation with `found == false` and a `FailureReason`.
  ///
  /// This is also the pipeline's exception boundary: infrastructure
  /// failures below it (a `StatusError` from a worker task, any stray
  /// exception) come back as an error Status, never as a thrown exception;
  /// a query-deadline unwind comes back as a `kBudgetExceeded` Explanation.
  /// With `EmigreOptions::anytime` set, budget expiry returns the
  /// best-so-far candidate flagged `degraded` (docs/robustness.md).
  [[nodiscard]] Result<Explanation> Explain(const WhyNotQuestion& q, Mode mode,
                              Heuristic heuristic) const;

  /// Paper §5.4 "Choice of the Method": runs Remove mode first when the
  /// user has existing actions to reason about, then falls back to Add
  /// mode (whose search space is independent of the user's history).
  [[nodiscard]] Result<Explanation> ExplainAuto(
      const WhyNotQuestion& q,
      Heuristic heuristic = Heuristic::kIncremental) const;

  /// The recommender's current full ranking for `user` (Eq. 2 candidates).
  recsys::RecommendationList CurrentRanking(graph::NodeId user) const;

  const EmigreOptions& options() const { return opts_; }

  /// Checks Definition 4.1 for (user, wni): wni is an item node, has no
  /// edge from the user, and differs from the current recommendation `rec`.
  [[nodiscard]]
  Status ValidateQuestion(const WhyNotQuestion& q, graph::NodeId rec) const;

  /// Cache statistics (diagnostics; shared across Explain calls).
  const ppr::ReversePushCache<graph::CsrGraph>& ppr_cache() const {
    return *ppr_cache_;
  }

  /// The engine's graph (shared with the testers).
  const graph::CsrGraph& csr() const { return csr_; }

 private:
  Emigre(graph::CsrGraph csr, EmigreOptions opts);

  /// The pipeline body; may throw (deadline unwinds, worker-task errors).
  /// `Explain` wraps it in the exception boundary. `record`, when non-null,
  /// collects per-phase wall times for the audit log.
  [[nodiscard]] Result<Explanation> ExplainImpl(const WhyNotQuestion& q,
                                                Mode mode, Heuristic heuristic,
                                                obs::QueryRecord* record) const;

  EmigreOptions opts_;
  // The engine's graph, built (or aliased) once: the PPR cache pushes over
  // it and every tester lays its CsrOverlay on it, so no Explain call pays
  // the O(V+E) snapshot cost.
  graph::CsrGraph csr_;
  // Reverse-push vectors are pure functions of (graph, target); shared
  // across questions and across the per-question phases. The cache is
  // internally synchronized, keeping concurrent Explain calls safe.
  std::unique_ptr<ppr::ReversePushCache<graph::CsrGraph>> ppr_cache_;
};

}  // namespace emigre::explain

#endif  // EMIGRE_EXPLAIN_EMIGRE_H_
