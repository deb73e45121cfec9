#ifndef EMIGRE_PPR_KERNELS_H_
#define EMIGRE_PPR_KERNELS_H_

#include "fault/fault.h"
#include "graph/traits.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/forward_push.h"
#include "ppr/options.h"
#include "ppr/workspace.h"
#include "util/timer.h"

namespace emigre::ppr {

/// \brief Scalar outputs of a kernel push; the vectors live in the workspace.
struct KernelResult {
  size_t pushes = 0;
  /// Signed residual sum, maintained incrementally (no O(n) scan).
  double residual_mass = 0.0;
};

/// \brief Forward Local Push into a reusable `PushWorkspace` — the
/// library's forward push engine.
///
/// Byte-for-byte the same push schedule and floating-point operation order
/// as the dense reference `ForwardPush` — FIFO frontier, identical enqueue
/// conditions, identical accumulation order — so the estimates it produces
/// are bitwise identical to the reference's on the same graph view (the
/// kernel tests and `bench_ppr_kernels` check exactly that). The only
/// difference is the state representation: epoch-stamped sparse vectors and
/// a flat ring frontier instead of freshly zero-filled dense arrays and a
/// `std::deque`, making a push that touches k nodes cost O(k) instead of
/// O(n).
///
/// On return the workspace holds the estimates/residuals for the touched
/// nodes (valid until the next `Begin`); read them with
/// `ws.Estimate(v)` / `ws.Residual(v)`, compact with
/// `ws.ExportSparseEstimates()`, or expand with `ExportDensePush` below.
template <graph::GraphLike G>
KernelResult ForwardPushKernel(const G& g, graph::NodeId source,
                               const PprOptions& opts, PushWorkspace& ws) {
  EMIGRE_SPAN("flp.kernel");
  EMIGRE_FAULT_POINT("ppr.flp.kernel");
  const size_t n = g.NumNodes();
  ws.Begin(n);
  KernelResult out;
  if (source >= n) return out;
  PushHotView hot(ws);

  hot.Touch(source);
  hot.ResidualRef(source) = 1.0;
  out.residual_mass = 1.0;
  hot.FrontierPush(source);

  auto threshold = [&](graph::NodeId u) {
    size_t deg = g.OutDegree(u);
    return opts.epsilon * static_cast<double>(deg > 0 ? deg : 1);
  };

  size_t max_queue = hot.FrontierSize();
  while (!hot.FrontierEmpty()) {
    // Cooperative deadline: no-op unless the caller armed one.
    if (DeadlineExpired(opts, out.pushes)) throw DeadlineExceededError();
    graph::NodeId u = hot.FrontierPop();
    double r = hot.ResidualRef(u);
    if (r < threshold(u)) continue;
    hot.ResidualRef(u) = 0.0;
    out.residual_mass -= r;
    ++out.pushes;

    double out_w = g.OutWeight(u);
    if (out_w <= 0.0) {
      // Dangling node: see ForwardPush — the whole residual converts.
      hot.EstimateRef(u) += r;
      continue;
    }
    hot.EstimateRef(u) += opts.alpha * r;
    double spread = (1.0 - opts.alpha) * r / out_w;
    g.ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId, double w) {
      hot.Touch(v);
      hot.ResidualRef(v) += spread * w;
      out.residual_mass += spread * w;
      if (!hot.InFrontier(v) && hot.ResidualRef(v) >= threshold(v)) {
        hot.FrontierPush(v);
      }
    });
    if (hot.FrontierSize() > max_queue) max_queue = hot.FrontierSize();
  }

  EMIGRE_COUNTER("ppr.flp.kernel.calls").Increment();
  EMIGRE_COUNTER("ppr.flp.kernel.pushes").Increment(out.pushes);
  EMIGRE_GAUGE("ppr.flp.kernel.max_queue")
      .SetMax(static_cast<double>(max_queue));
  return out;
}

/// \brief Reverse Local Push into a reusable `PushWorkspace` — the
/// library's reverse push engine.
///
/// Kernelized `ReversePush` with the same bitwise-equivalence guarantee as
/// `ForwardPushKernel`: identical FIFO schedule and float-op order, sparse
/// workspace state. `ws.Estimate(s)` ≈ PPR(s, target) after the call.
template <graph::GraphLike G>
KernelResult ReversePushKernel(const G& g, graph::NodeId target,
                               const PprOptions& opts, PushWorkspace& ws) {
  EMIGRE_SPAN("rlp.kernel");
  EMIGRE_FAULT_POINT("ppr.rlp.kernel");
  const size_t n = g.NumNodes();
  ws.Begin(n);
  KernelResult out;
  if (target >= n) return out;
  PushHotView hot(ws);

  hot.Touch(target);
  hot.ResidualRef(target) = 1.0;
  out.residual_mass = 1.0;
  hot.FrontierPush(target);

  size_t max_queue = hot.FrontierSize();
  while (!hot.FrontierEmpty()) {
    // Cooperative deadline: no-op unless the caller armed one.
    if (DeadlineExpired(opts, out.pushes)) throw DeadlineExceededError();
    graph::NodeId v = hot.FrontierPop();
    double r = hot.ResidualRef(v);
    if (r < opts.epsilon) continue;
    hot.ResidualRef(v) = 0.0;
    out.residual_mass -= r;
    ++out.pushes;

    bool dangling = g.OutWeight(v) <= 0.0;
    if (dangling) {
      // Geometric series of self-pushes: see ReversePush.
      hot.EstimateRef(v) += r;
      r /= opts.alpha;
    } else {
      hot.EstimateRef(v) += opts.alpha * r;
    }

    double spread = (1.0 - opts.alpha) * r;
    g.ForEachInEdge(v, [&](graph::NodeId u, graph::EdgeTypeId, double w) {
      double out_w = g.OutWeight(u);
      if (out_w <= 0.0) return;  // u unreachable as a walk step into v
      hot.Touch(u);
      hot.ResidualRef(u) += spread * w / out_w;
      out.residual_mass += spread * w / out_w;
      if (!hot.InFrontier(u) && hot.ResidualRef(u) >= opts.epsilon) {
        hot.FrontierPush(u);
      }
    });
    if (hot.FrontierSize() > max_queue) max_queue = hot.FrontierSize();
  }

  EMIGRE_COUNTER("ppr.rlp.kernel.calls").Increment();
  EMIGRE_COUNTER("ppr.rlp.kernel.pushes").Increment(out.pushes);
  EMIGRE_GAUGE("ppr.rlp.kernel.max_queue")
      .SetMax(static_cast<double>(max_queue));
  return out;
}

/// \brief Expands the workspace state of the last kernel push into a dense
/// `PushResult` (for the Eq. 3/4 validators, equivalence tests, and the
/// one-off initial state of `DynamicForwardPush`). O(n) — not for hot loops.
inline PushResult ExportDensePush(const PushWorkspace& ws, size_t n,
                                  double residual_mass) {
  PushResult out;
  out.estimate.assign(n, 0.0);  // NOLINT(dense-reset): one-off dense export
  out.residual.assign(n, 0.0);  // NOLINT(dense-reset): one-off dense export
  for (graph::NodeId v : ws.touched()) {
    out.estimate[v] = ws.Estimate(v);
    out.residual[v] = ws.Residual(v);
  }
  out.residual_mass = residual_mass;
  return out;
}

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_KERNELS_H_
