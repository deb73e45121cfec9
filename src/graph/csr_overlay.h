#ifndef EMIGRE_GRAPH_CSR_OVERLAY_H_
#define EMIGRE_GRAPH_CSR_OVERLAY_H_

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
/// Overlays are cheap to construct and to `Clear()`, and several overlays
/// over the same base may be used concurrently from different threads as
/// long as the base outlives them.
class CsrOverlay {
 public:
  explicit CsrOverlay(const CsrGraph& base) : base_(&base) {}

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
    if (removed_.empty() || removed_src_.count(n) == 0) {
      base_->ForEachOutEdge(n, fn);
    } else {
      base_->ForEachOutEdge(n, [&](NodeId dst, EdgeTypeId t, double w) {
        if (removed_.count(EdgeRef{n, dst, t}) == 0) fn(dst, t, w);
      });
    }
    auto it = added_out_.find(n);
    if (it != added_out_.end()) {
      for (const Edge& e : it->second) fn(e.node, e.type, e.weight);
    }
  }

  template <typename F>
  void ForEachInEdge(NodeId n, F&& fn) const {
    if (removed_.empty() || removed_dst_.count(n) == 0) {
      base_->ForEachInEdge(n, fn);
    } else {
      base_->ForEachInEdge(n, [&](NodeId src, EdgeTypeId t, double w) {
        if (removed_.count(EdgeRef{src, n, t}) == 0) fn(src, t, w);
      });
    }
    auto it = added_in_.find(n);
    if (it != added_in_.end()) {
      for (const Edge& e : it->second) fn(e.node, e.type, e.weight);
    }
  }

 private:
  const CsrGraph* base_;
  std::unordered_set<EdgeRef, EdgeRefHash> removed_;
  // Nodes that appear as src/dst of some removed edge — lets the hot
  // iteration path skip hash probes entirely for untouched nodes.
  std::unordered_map<NodeId, size_t> removed_src_;
  std::unordered_map<NodeId, size_t> removed_dst_;
  std::unordered_map<NodeId, std::vector<Edge>> added_out_;
  std::unordered_map<NodeId, std::vector<Edge>> added_in_;
  std::unordered_map<NodeId, double> out_weight_delta_;
  size_t num_added_ = 0;
};

}  // namespace emigre::graph

#endif  // EMIGRE_GRAPH_CSR_OVERLAY_H_
