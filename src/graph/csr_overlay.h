#ifndef EMIGRE_GRAPH_CSR_OVERLAY_H_
#define EMIGRE_GRAPH_CSR_OVERLAY_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/csr.h"
#include "graph/types.h"
#include "util/status.h"

namespace emigre::graph {

/// \brief A counterfactual view over an immutable `CsrGraph` snapshot.
///
/// Same edit semantics and Status surface as `GraphOverlay` (which wraps a
/// `HinGraph`), but the base traversals run over the CSR's contiguous
/// neighbor/weight arrays — the representation the push kernels want. The
/// testers snapshot the graph once, then evaluate every candidate flip
/// through a `CsrOverlay` without materializing anything.
///
/// Because `CsrGraph::BuildFrom` preserves adjacency order and `Clear()`
/// returns the view to the untouched base arrays, repeated
/// edit → evaluate → Clear cycles always traverse edges in the same order —
/// the property the bitwise kernel-vs-reference equivalence relies on (a
/// mutable `HinGraph` scratch copy loses it: remove + re-add reorders the
/// adjacency list).
///
/// A TEST edits a handful of edges around one user, but every power sweep
/// and push reads every node. So the overlay keeps a dense touched index,
/// one byte per node with an "out touched" and an "in touched" bit, set by
/// every edit that passes its node-range check. `OutWeight`, `OutDegree`,
/// `InDegree` and the two traversals test that byte first and read the base
/// CSR directly for an untouched node: no hash probe on the hot paths, the
/// same edges in the same order. The edit maps stay the source of truth for
/// touched nodes; a bit set by a failed edit, or one left over after
/// `Clear()` empties the maps, only costs the maps' lookups, never a wrong
/// answer. The index costs `NumNodes()` bytes per overlay (about 39 KB on
/// the medium band), allocated once at construction.
///
/// `Clear()` resets only the bytes that edits set, so it is O(edits), not
/// O(|V|). Several overlays over the same base may be used concurrently
/// from different threads as long as the base outlives them: each owns its
/// index.
class CsrOverlay {
 public:
  explicit CsrOverlay(const CsrGraph& base)
      : base_(&base), touched_(base.NumNodes(), 0) {}

  const CsrGraph& base() const { return *base_; }

  // --- Edits ----------------------------------------------------------------

  /// Adds (src, dst, type, weight) on top of the base. Restores the original
  /// weight instead if that exact edge was previously removed through this
  /// overlay. Fails with AlreadyExists if the edge is already present in the
  /// effective graph.
  [[nodiscard]]
  Status AddEdge(NodeId src, NodeId dst, EdgeTypeId type, double weight = 1.0);

  /// Removes (src, dst, type) from the effective graph — either masking a
  /// base edge or undoing a previous overlay addition.
  [[nodiscard]] Status RemoveEdge(NodeId src, NodeId dst, EdgeTypeId type);

  /// Overrides the weight of an existing effective edge (base or added).
  /// Fails with NotFound when the edge is absent and InvalidArgument on a
  /// non-positive weight.
  [[nodiscard]]
  Status SetWeight(NodeId src, NodeId dst, EdgeTypeId type, double weight);

  /// Drops all edits; the overlay becomes a transparent view again.
  void Clear();

  size_t NumAdded() const { return num_added_; }
  size_t NumRemoved() const { return removed_.size(); }
  bool HasEdits() const { return num_added_ > 0 || !removed_.empty(); }

  /// The current edit sets (for reporting), sorted.
  std::vector<EdgeRef> AddedEdges() const;
  std::vector<EdgeRef> RemovedEdges() const;

  // --- GraphLike interface ---------------------------------------------------

  size_t NumNodes() const { return base_->NumNodes(); }
  NodeTypeId NodeType(NodeId n) const { return base_->NodeType(n); }

  /// Effective out-weight of `n` (base plus overlay delta).
  double OutWeight(NodeId n) const {
    double w = base_->OutWeight(n);
    if ((touched_[n] & kOutTouched) == 0) return w;
    auto it = out_weight_delta_.find(n);
    if (it != out_weight_delta_.end()) w += it->second;
    return w < 0.0 ? 0.0 : w;
  }

  /// Effective out-degree of `n`.
  size_t OutDegree(NodeId n) const;
  size_t InDegree(NodeId n) const;

  bool HasEdge(NodeId src, NodeId dst) const;
  bool HasEdge(NodeId src, NodeId dst, EdgeTypeId type) const;

  template <typename F>
  void ForEachOutEdge(NodeId n, F&& fn) const {
    if ((touched_[n] & kOutTouched) == 0) {
      base_->ForEachOutEdge(n, fn);
      return;
    }
    base_->ForEachOutEdge(n, [&](NodeId dst, EdgeTypeId t, double w) {
      if (removed_.count(EdgeRef{n, dst, t}) == 0) fn(dst, t, w);
    });
    auto it = added_out_.find(n);
    if (it != added_out_.end()) {
      for (const Edge& e : it->second) fn(e.node, e.type, e.weight);
    }
  }

  template <typename F>
  void ForEachInEdge(NodeId n, F&& fn) const {
    if ((touched_[n] & kInTouched) == 0) {
      base_->ForEachInEdge(n, fn);
      return;
    }
    base_->ForEachInEdge(n, [&](NodeId src, EdgeTypeId t, double w) {
      if (removed_.count(EdgeRef{src, n, t}) == 0) fn(src, t, w);
    });
    auto it = added_in_.find(n);
    if (it != added_in_.end()) {
      for (const Edge& e : it->second) fn(e.node, e.type, e.weight);
    }
  }

 private:
  static constexpr uint8_t kOutTouched = 1;  // out-edges or out-weight edited
  static constexpr uint8_t kInTouched = 2;   // in-edges edited

  // Sets `bits` in `n`'s touched byte (n must be in range).
  void Touch(NodeId n, uint8_t bits) {
    if (touched_[n] == 0) touched_nodes_.push_back(n);
    touched_[n] |= bits;
  }
  // Marks both endpoints of an edit that passed its range check.
  void TouchEdge(NodeId src, NodeId dst) {
    Touch(src, kOutTouched);
    Touch(dst, kInTouched);
  }

  const CsrGraph* base_;
  // Dense touched index (see the class comment) and the nodes whose byte
  // is non-zero, so Clear() resets only those.
  std::vector<uint8_t> touched_;
  std::vector<NodeId> touched_nodes_;
  std::unordered_set<EdgeRef, EdgeRefHash> removed_;
  // Per-node counts of removed edges, for the effective degrees only.
  std::unordered_map<NodeId, size_t> removed_src_;
  std::unordered_map<NodeId, size_t> removed_dst_;
  std::unordered_map<NodeId, std::vector<Edge>> added_out_;
  std::unordered_map<NodeId, std::vector<Edge>> added_in_;
  std::unordered_map<NodeId, double> out_weight_delta_;
  size_t num_added_ = 0;
};

}  // namespace emigre::graph

#endif  // EMIGRE_GRAPH_CSR_OVERLAY_H_
