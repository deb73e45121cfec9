#ifndef EMIGRE_PPR_DYNAMIC_H_
#define EMIGRE_PPR_DYNAMIC_H_

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "graph/traits.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/forward_push.h"
#include "ppr/kernels.h"
#include "ppr/options.h"
#include "ppr/workspace.h"
#include "util/timer.h"

namespace emigre::ppr {

/// \brief Incrementally maintained Forward Push state under edge updates.
///
/// Implements the dynamic-graph PPR maintenance of Zhang, Lofgren & Goel
/// (KDD'16) — the paper's reference [38] — for a fixed source: instead of
/// recomputing PPR(s,·) from scratch after each graph edit, repair the
/// push invariant locally and re-push.
///
/// A valid forward-push state satisfies (in vector form)
///   r = e_s − p/α + (1−α)/α · (p·W).
/// When the out-edge set of a single node u changes, only the row W(u,·)
/// changes, so the repair touches exactly u's old and new out-neighbors:
///   r(v) += (1−α)/α · p(u) · (W′(u,v) − W(u,v)).
/// Residuals may turn negative after deletions; the refine loop pushes
/// signed residuals symmetrically.
///
/// Two refine paths share the arithmetic:
///  - Workspace (the engine the testers run): the refine frontier is seeded
///    from only the nodes the repair touched ({u} ∪ old row ∪ new row,
///    ascending) and runs on the workspace's reusable ring buffer, so a
///    repair costs O(row + pushes) instead of O(n). Valid because every
///    refine leaves all |residual| below threshold, so after a repair only
///    touched nodes can exceed it.
///  - Dense reference (no workspace): an O(n) scan seeds a `std::deque`,
///    with an O(n) `queued` array allocated per repair. It shares no
///    frontier code with the workspace path, and the tests hold the two to
///    bitwise-equal estimates and residuals after every repair (the seed
///    sets, and therefore the push schedules and float results, are
///    identical).
///
/// Usage: construct over a mutable graph view, then for each edit call
/// `BeforeOutEdgeChange(u)`, mutate the graph, call `AfterOutEdgeChange(u)`.
template <graph::GraphLike G>
class DynamicForwardPush {
 public:
  /// Runs the initial push from `source` over the current state of `g`.
  /// The referenced graph must outlive this object; so must `workspace`
  /// when supplied (nullptr selects the dense reference refine). The
  /// workspace is owned by the caller and is exclusively this object's
  /// between `AfterOutEdgeChange` calls — do not share one across
  /// concurrently-repairing instances.
  DynamicForwardPush(const G& g, graph::NodeId source,
                     const PprOptions& opts = {},
                     PushWorkspace* workspace = nullptr)
      : g_(&g), source_(source), opts_(opts), ws_(workspace) {
    if (ws_ != nullptr) {
      KernelResult init = ForwardPushKernel(g, source, opts, *ws_);
      state_ = ExportDensePush(*ws_, g.NumNodes(), init.residual_mass);
    } else {
      state_ = ForwardPush(g, source, opts);
    }
  }

  /// Snapshots the transition row of `u` ahead of an out-edge mutation.
  void BeforeOutEdgeChange(graph::NodeId u) {
    pending_node_ = u;
    pending_row_ = TransitionRow(u);
  }

  /// Repairs the invariant after the out-edges of the node passed to
  /// `BeforeOutEdgeChange` were mutated, then re-pushes to convergence.
  void AfterOutEdgeChange(graph::NodeId u) {
    EMIGRE_SPAN("dyn.repair");
    EMIGRE_FAULT_POINT("ppr.dyn.refine");
    EMIGRE_COUNTER("ppr.dyn.repairs").Increment();
    std::unordered_map<graph::NodeId, double> new_row = TransitionRow(u);
    double scale = (1.0 - opts_.alpha) / opts_.alpha * state_.estimate[u];
    if (scale != 0.0) {
      for (const auto& [v, w_new] : new_row) {
        double w_old = 0.0;
        if (auto it = pending_row_.find(v); it != pending_row_.end()) {
          w_old = it->second;
        }
        double delta = scale * (w_new - w_old);
        state_.residual[v] += delta;
        state_.residual_mass += delta;
      }
      for (const auto& [v, w_old] : pending_row_) {
        if (new_row.count(v) == 0) {
          double delta = scale * w_old;
          state_.residual[v] -= delta;
          state_.residual_mass -= delta;
        }
      }
    }
    if (ws_ != nullptr) {
      // Only nodes the repair wrote can exceed the threshold (everything
      // else converged below it in the previous refine); seed ascending to
      // match the reference full-scan enqueue order exactly.
      seed_buf_.clear();
      seed_buf_.push_back(u);
      for (const auto& [v, w] : pending_row_) seed_buf_.push_back(v);
      for (const auto& [v, w] : new_row) seed_buf_.push_back(v);
      std::sort(seed_buf_.begin(), seed_buf_.end());
      seed_buf_.erase(std::unique(seed_buf_.begin(), seed_buf_.end()),
                      seed_buf_.end());
    }
    pending_row_.clear();
    pending_node_ = graph::kInvalidNode;
    if (ws_ != nullptr) {
      RefineSparse();
    } else {
      Refine();
    }
    ++repairs_since_resync_;
    if (repairs_since_resync_ >= kResidualMassResyncInterval) {
      ResyncResidualMass();
    }
  }

  /// Current estimate of PPR(source, t).
  double Estimate(graph::NodeId t) const { return state_.estimate[t]; }
  const std::vector<double>& Estimates() const { return state_.estimate; }
  const std::vector<double>& Residuals() const { return state_.residual; }

  /// The full state (for the Eq. 3 validators).
  const PushResult& State() const { return state_; }

  /// Total absolute residual mass (error bound on the estimates).
  double AbsResidualMass() const {
    double total = 0.0;
    for (double r : state_.residual) total += std::abs(r);
    return total;
  }

  /// Incremental `residual_mass` accumulates one float rounding per repair
  /// update; over thousands of repairs the drift can compound past the
  /// Eq. 3 tolerance and poison anytime-mode `degraded_gap` reporting.
  /// Every this-many repairs the signed mass is re-derived from the
  /// residual vector with one O(n) scan (amortized O(n/interval)).
  static constexpr size_t kResidualMassResyncInterval = 1024;

  /// Re-derives `residual_mass` from the residual vector now and returns
  /// the signed drift (incremental − scan) that was discarded. Exposed so
  /// drift-bound tests can measure accumulation without waiting for the
  /// periodic trigger.
  double ResyncResidualMass() {
    double scan = 0.0;
    for (double r : state_.residual) scan += r;
    double drift = state_.residual_mass - scan;
    state_.residual_mass = scan;
    repairs_since_resync_ = 0;
    EMIGRE_COUNTER("ppr.dyn.resyncs").Increment();
    EMIGRE_GAUGE("ppr.dyn.residual_mass_drift").SetMax(std::abs(drift));
    return drift;
  }

 private:
  /// Transition probabilities out of u, with the implicit dangling
  /// self-loop materialized.
  std::unordered_map<graph::NodeId, double> TransitionRow(
      graph::NodeId u) const {
    std::unordered_map<graph::NodeId, double> row;
    double out_w = g_->OutWeight(u);
    if (out_w <= 0.0) {
      row[u] = 1.0;
      return row;
    }
    g_->ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId, double w) {
      row[v] += w / out_w;
    });
    return row;
  }

  double Threshold(graph::NodeId v) const {
    size_t deg = g_->OutDegree(v);
    return opts_.epsilon * static_cast<double>(deg > 0 ? deg : 1);
  }

  /// Shared push body of both refine paths: converts the signed residual
  /// of `u` into estimate and spreads the remainder. `enqueue(v)` is called
  /// for every neighbor whose residual changed.
  template <typename EnqueueFn>
  bool PushNode(graph::NodeId u, EnqueueFn&& enqueue) {
    double r = state_.residual[u];
    if (std::abs(r) < Threshold(u)) return false;
    state_.residual[u] = 0.0;
    state_.residual_mass -= r;
    double out_w = g_->OutWeight(u);
    if (out_w <= 0.0) {
      state_.estimate[u] += r;
      return true;
    }
    state_.estimate[u] += opts_.alpha * r;
    double spread = (1.0 - opts_.alpha) * r / out_w;
    g_->ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId, double w) {
      state_.residual[v] += spread * w;
      state_.residual_mass += spread * w;
      enqueue(v);
    });
    return true;
  }

  /// Dense reference refine over the existing state with signed residuals:
  /// O(n) scan + per-call dense queued array.
  void Refine() {
    const size_t n = g_->NumNodes();
    std::deque<graph::NodeId> queue;
    std::vector<char> queued(n, 0);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (std::abs(state_.residual[v]) >= Threshold(v)) {
        queue.push_back(v);
        queued[v] = 1;
      }
    }
    size_t pushes = 0;
    while (!queue.empty()) {
      // Cooperative deadline: no-op unless the caller armed one.
      if (DeadlineExpired(opts_, pushes)) throw DeadlineExceededError();
      graph::NodeId u = queue.front();
      queue.pop_front();
      queued[u] = 0;
      if (PushNode(u, [&](graph::NodeId v) {
            if (!queued[v] && std::abs(state_.residual[v]) >= Threshold(v)) {
              queued[v] = 1;
              queue.push_back(v);
            }
          })) {
        ++pushes;
      }
    }
    EMIGRE_COUNTER("ppr.dyn.refine_pushes").Increment(pushes);
  }

  /// Workspace refine: seeds only from `seed_buf_` (the nodes the repair
  /// touched) and reuses the workspace ring frontier — O(seeds + pushes).
  void RefineSparse() {
    ws_->Begin(g_->NumNodes());
    PushHotView hot(*ws_);
    for (graph::NodeId v : seed_buf_) {
      if (std::abs(state_.residual[v]) >= Threshold(v)) {
        hot.FrontierPush(v);
      }
    }
    size_t pushes = 0;
    while (!hot.FrontierEmpty()) {
      // Cooperative deadline: no-op unless the caller armed one.
      if (DeadlineExpired(opts_, pushes)) throw DeadlineExceededError();
      graph::NodeId u = hot.FrontierPop();
      if (PushNode(u, [&](graph::NodeId v) {
            if (!hot.InFrontier(v) &&
                std::abs(state_.residual[v]) >= Threshold(v)) {
              hot.FrontierPush(v);
            }
          })) {
        ++pushes;
      }
    }
    EMIGRE_COUNTER("ppr.dyn.refine_pushes").Increment(pushes);
  }

  const G* g_;
  graph::NodeId source_;
  PprOptions opts_;
  PushWorkspace* ws_;
  PushResult state_;
  graph::NodeId pending_node_ = graph::kInvalidNode;
  std::unordered_map<graph::NodeId, double> pending_row_;
  std::vector<graph::NodeId> seed_buf_;
  size_t repairs_since_resync_ = 0;
};

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_DYNAMIC_H_
