#ifndef EMIGRE_PPR_WORKSPACE_H_
#define EMIGRE_PPR_WORKSPACE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/types.h"

namespace emigre::ppr {

struct PushResult;

/// \brief A compacted sparse PPR vector: (node, value) pairs sorted by node.
///
/// Local-push results touch O(Σ pushes) nodes, not O(|V|); storing the
/// dense estimate vector wastes memory linear in graph size per cached
/// target. `SparseVector` keeps only the touched entries — the
/// `ReversePushCache` stores these, and callers that need whole-graph
/// indexing expand once with `ToDense`.
class SparseVector {
 public:
  SparseVector() = default;

  /// Takes ownership of parallel (id, value) arrays. `ids` must be sorted
  /// ascending and unique; entries with value 0.0 are kept as-is (callers
  /// compact before handing over).
  SparseVector(std::vector<graph::NodeId> ids, std::vector<double> values)
      : ids_(std::move(ids)), values_(std::move(values)) {}

  /// Number of stored (non-zero) entries.
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Value at `node`, 0.0 when absent. O(log size).
  double Get(graph::NodeId node) const {
    auto it = std::lower_bound(ids_.begin(), ids_.end(), node);
    if (it == ids_.end() || *it != node) return 0.0;
    return values_[static_cast<size_t>(it - ids_.begin())];
  }

  /// Expands into a dense vector over `n` nodes (zeros elsewhere).
  std::vector<double> ToDense(size_t n) const {
    std::vector<double> out(n, 0.0);
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] < n) out[ids_[i]] = values_[i];
    }
    return out;
  }

  /// Heap bytes held by this vector (the `ppr.cache.bytes` accounting).
  size_t MemoryBytes() const {
    return ids_.capacity() * sizeof(graph::NodeId) +
           values_.capacity() * sizeof(double);
  }

  const std::vector<graph::NodeId>& ids() const { return ids_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<graph::NodeId> ids_;
  std::vector<double> values_;
};

/// \brief Reusable sparse state for local-push computations.
///
/// The dense reference pushes (`ForwardPush`, `ReversePush`) zero-fill
/// `estimate`/`residual`/`queued` arrays of size |V| on every call, so a
/// push touching k nodes costs O(|V| + Σ pushes). The workspace makes the
/// same state reusable at O(k):
///
///  - **Epoch-stamped values.** `estimate_`/`residual_` stay dirty between
///    calls; a per-node stamp records the epoch that last wrote it. `Begin`
///    bumps the epoch (O(1)); the first touch of a node in an epoch lazily
///    resets its two values and records it on the touched list.
///  - **Ring-buffer frontier.** A flat power-of-two ring replaces
///    `std::deque`, with the same FIFO semantics and an epoch-stamped
///    "queued" flag per node, so kernels reproduce the reference push
///    schedule (and therefore bitwise-identical estimates) without
///    allocation.
///
/// After warm-up (the arrays reached graph size once), `Begin` performs no
/// O(|V|) work — `stats().dense_resets` counts the O(|V|) growth events so
/// benches can assert exactly that.
///
/// A workspace serves one push at a time and is not thread-safe; testers own
/// one each, giving one workspace per worker thread under `ParallelTester`.
class PushWorkspace {
  friend class PushHotView;

 public:
  struct Stats {
    /// `Begin` calls (one per push).
    size_t begins = 0;
    /// O(|V|)-cost array growth/clear events. Stable after warm-up.
    size_t dense_resets = 0;
    /// Total nodes touched across all pushes (the Σ k the sparse reset
    /// actually paid for, vs. begins * |V| for a dense reset).
    size_t touched_total = 0;
  };

  /// Starts a new push over an `n`-node graph. O(1) after warm-up.
  void Begin(size_t n) {
    ++stats_.begins;
    stats_.touched_total += touched_.size();
    if (n > stamp_.size()) Grow(n);
    touched_.clear();
    frontier_head_ = 0;
    frontier_count_ = 0;
    if (epoch_ == UINT32_MAX) {
      // Stamp wrap: one rare O(|V|) clear keeps stale stamps from aliasing.
      ++stats_.dense_resets;
      std::fill(stamp_.begin(), stamp_.end(), 0);
      std::fill(queued_stamp_.begin(), queued_stamp_.end(), 0);
      std::fill(mark_stamp_.begin(), mark_stamp_.end(), 0);
      epoch_ = 0;
    }
    ++epoch_;
  }

  size_t size() const { return stamp_.size(); }
  const Stats& stats() const { return stats_; }

  // --- Epoch-stamped estimate / residual ------------------------------------

  /// Lazily zeroes (estimate, residual) of `v` on first touch this epoch.
  void Touch(graph::NodeId v) {
    if (stamp_[v] != epoch_) {
      stamp_[v] = epoch_;
      estimate_[v] = 0.0;
      residual_[v] = 0.0;
      touched_.push_back(v);
    }
  }

  double Estimate(graph::NodeId v) const {
    return stamp_[v] == epoch_ ? estimate_[v] : 0.0;
  }
  double Residual(graph::NodeId v) const {
    return stamp_[v] == epoch_ ? residual_[v] : 0.0;
  }

  /// Mutable refs for kernels; `Touch(v)` must have run this epoch.
  double& EstimateRef(graph::NodeId v) { return estimate_[v]; }
  double& ResidualRef(graph::NodeId v) { return residual_[v]; }

  /// Nodes touched this epoch, in first-touch order.
  const std::vector<graph::NodeId>& touched() const { return touched_; }

  // --- FIFO frontier ---------------------------------------------------------

  bool FrontierEmpty() const { return frontier_count_ == 0; }

  /// True when `v` is currently enqueued (this epoch).
  bool InFrontier(graph::NodeId v) const {
    return queued_stamp_[v] == epoch_;
  }

  /// Enqueues `v` (caller checks `InFrontier` first, as the reference
  /// pushes check their `queued` flags).
  void FrontierPush(graph::NodeId v) {
    if (frontier_count_ == frontier_buf_.size()) GrowFrontier();
    frontier_buf_[(frontier_head_ + frontier_count_) &
                  (frontier_buf_.size() - 1)] = v;
    ++frontier_count_;
    queued_stamp_[v] = epoch_;
  }

  /// Pops the oldest enqueued node and clears its queued flag.
  graph::NodeId FrontierPop() {
    graph::NodeId v = frontier_buf_[frontier_head_];
    frontier_head_ = (frontier_head_ + 1) & (frontier_buf_.size() - 1);
    --frontier_count_;
    queued_stamp_[v] = 0;
    return v;
  }

  size_t FrontierSize() const { return frontier_count_; }

  // --- Epoch-stamped node marks ---------------------------------------------
  // An independent scratch bitset (e.g. "items the user interacted with")
  // with the same O(touched) reset discipline. Valid until the next Begin.

  void Mark(graph::NodeId v) { mark_stamp_[v] = epoch_; }
  bool Marked(graph::NodeId v) const { return mark_stamp_[v] == epoch_; }

  // --- Exports ---------------------------------------------------------------

  /// Copies the touched entries into a compacted `SparseVector` (estimates
  /// only), dropping exact zeros. O(k log k) for the id sort.
  SparseVector ExportSparseEstimates() const {
    std::vector<graph::NodeId> ids;
    ids.reserve(touched_.size());
    for (graph::NodeId v : touched_) {
      if (estimate_[v] != 0.0) ids.push_back(v);
    }
    std::sort(ids.begin(), ids.end());
    std::vector<double> values(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) values[i] = estimate_[ids[i]];
    return SparseVector(std::move(ids), std::move(values));
  }

  // --- Dense scratch buffers -------------------------------------------------
  // Reused storage for the inherently-dense engines (power iteration's two
  // distribution vectors). The caller owns the contents; the buffer is only
  // guaranteed to have size `n`, not any particular values. References are
  // stable across later DenseBuffer calls (buffers are heap-boxed).

  std::vector<double>& DenseBuffer(size_t slot, size_t n) {
    if (slot >= dense_buffers_.size()) {
      dense_buffers_.resize(slot + 1);  // NOLINT(dense-reset): O(slots) table
    }
    if (dense_buffers_[slot] == nullptr) {
      dense_buffers_[slot] = std::make_unique<std::vector<double>>();
    }
    std::vector<double>& buf = *dense_buffers_[slot];
    if (buf.size() < n) buf.resize(n);  // NOLINT(dense-reset): scratch growth
    return buf;
  }

 private:
  void Grow(size_t n) {
    ++stats_.dense_resets;
    stamp_.resize(n, 0);          // NOLINT(dense-reset): warm-up growth
    queued_stamp_.resize(n, 0);   // NOLINT(dense-reset): warm-up growth
    mark_stamp_.resize(n, 0);     // NOLINT(dense-reset): warm-up growth
    estimate_.resize(n, 0.0);     // NOLINT(dense-reset): warm-up growth
    residual_.resize(n, 0.0);     // NOLINT(dense-reset): warm-up growth
    if (frontier_buf_.empty()) {
      frontier_buf_.resize(64);  // NOLINT(dense-reset): fixed initial ring
    }
  }

  void GrowFrontier() {
    // Double and linearize: ring contents move to the front of the new
    // buffer in FIFO order.
    size_t old_cap = frontier_buf_.size();
    std::vector<graph::NodeId> bigger(old_cap == 0 ? 64 : old_cap * 2);
    for (size_t i = 0; i < frontier_count_; ++i) {
      bigger[i] = frontier_buf_[(frontier_head_ + i) & (old_cap - 1)];
    }
    frontier_buf_ = std::move(bigger);
    frontier_head_ = 0;
  }

  uint32_t epoch_ = 0;
  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> queued_stamp_;
  std::vector<uint32_t> mark_stamp_;
  std::vector<double> estimate_;
  std::vector<double> residual_;
  std::vector<graph::NodeId> touched_;

  std::vector<graph::NodeId> frontier_buf_;  // power-of-two ring
  size_t frontier_head_ = 0;
  size_t frontier_count_ = 0;

  std::vector<std::unique_ptr<std::vector<double>>> dense_buffers_;

  Stats stats_;
};

/// \brief Raw-pointer view over a workspace epoch, for kernel hot loops.
///
/// Semantically identical to calling the `PushWorkspace` accessors, but the
/// array bases, the epoch, and the ring-frontier cursor are loaded ONCE at
/// construction instead of re-read through the workspace reference on every
/// relaxed edge / frontier operation (the compiler cannot hoist them past
/// the stores the push loop makes). Worth ~10% on push-dominated
/// workloads; bitwise-identical results.
///
/// Construct only after `Begin(n)` sized the arrays for this graph. The
/// view owns the frontier cursor while alive — do not touch the
/// workspace's frontier or start a new `Begin` until it is destroyed (the
/// destructor writes the cursor back).
class PushHotView {
 public:
  explicit PushHotView(PushWorkspace& ws)
      : ws_(ws),
        stamp_(ws.stamp_.data()),
        queued_(ws.queued_stamp_.data()),
        estimate_(ws.estimate_.data()),
        residual_(ws.residual_.data()),
        epoch_(ws.epoch_) {
    if (ws.frontier_buf_.empty()) ws.GrowFrontier();
    fbuf_ = ws.frontier_buf_.data();
    fmask_ = ws.frontier_buf_.size() - 1;
    fhead_ = ws.frontier_head_;
    fcount_ = ws.frontier_count_;
  }

  ~PushHotView() {
    ws_.frontier_head_ = fhead_;
    ws_.frontier_count_ = fcount_;
  }

  PushHotView(const PushHotView&) = delete;
  PushHotView& operator=(const PushHotView&) = delete;

  /// See PushWorkspace::Touch.
  void Touch(graph::NodeId v) {
    if (stamp_[v] != epoch_) {
      stamp_[v] = epoch_;
      estimate_[v] = 0.0;
      residual_[v] = 0.0;
      ws_.touched_.push_back(v);
    }
  }

  double& EstimateRef(graph::NodeId v) { return estimate_[v]; }
  double& ResidualRef(graph::NodeId v) { return residual_[v]; }

  bool InFrontier(graph::NodeId v) const { return queued_[v] == epoch_; }
  bool FrontierEmpty() const { return fcount_ == 0; }
  size_t FrontierSize() const { return fcount_; }

  void FrontierPush(graph::NodeId v) {
    if (fcount_ == fmask_ + 1) {
      ws_.frontier_head_ = fhead_;
      ws_.frontier_count_ = fcount_;
      ws_.GrowFrontier();
      fbuf_ = ws_.frontier_buf_.data();
      fmask_ = ws_.frontier_buf_.size() - 1;
      fhead_ = 0;
    }
    fbuf_[(fhead_ + fcount_) & fmask_] = v;
    ++fcount_;
    queued_[v] = epoch_;
  }

  graph::NodeId FrontierPop() {
    graph::NodeId v = fbuf_[fhead_];
    fhead_ = (fhead_ + 1) & fmask_;
    --fcount_;
    queued_[v] = 0;
    return v;
  }

 private:
  PushWorkspace& ws_;
  uint32_t* stamp_;
  uint32_t* queued_;
  double* estimate_;
  double* residual_;
  uint32_t epoch_;

  graph::NodeId* fbuf_ = nullptr;  // ring cursor, written back in the dtor
  size_t fmask_ = 0;
  size_t fhead_ = 0;
  size_t fcount_ = 0;
};

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_WORKSPACE_H_
