#include "graph/csr_overlay.h"

#include <algorithm>

#include "util/string_util.h"

namespace emigre::graph {

namespace {

// Removes one (node, type) entry from a vector adjacency list; returns its
// weight or a negative value when absent.
double EraseEntry(std::vector<Edge>* list, NodeId node, EdgeTypeId type) {
  for (auto it = list->begin(); it != list->end(); ++it) {
    if (it->node == node && it->type == type) {
      double w = it->weight;
      list->erase(it);
      return w;
    }
  }
  return -1.0;
}

}  // namespace

Status CsrOverlay::AddEdge(NodeId src, NodeId dst, EdgeTypeId type,
                           double weight) {
  if (!base_->IsValidNode(src) || !base_->IsValidNode(dst)) {
    return Status::InvalidArgument(
        StrFormat("csr overlay AddEdge(%u, %u): node out of range", src, dst));
  }
  TouchEdge(src, dst);
  if (!(weight > 0.0)) {
    return Status::InvalidArgument(
        "csr overlay AddEdge: weight must be positive");
  }
  EdgeRef ref{src, dst, type};
  if (auto it = removed_.find(ref); it != removed_.end()) {
    // Un-remove: the base edge becomes visible again with its base weight.
    removed_.erase(it);
    if (--removed_src_[src] == 0) removed_src_.erase(src);
    if (--removed_dst_[dst] == 0) removed_dst_.erase(dst);
    out_weight_delta_[src] += base_->EdgeWeight(src, dst, type);
    return Status::OK();
  }
  if (HasEdge(src, dst, type)) {
    return Status::AlreadyExists(
        StrFormat("csr overlay: edge (%u, %u, type=%u) already present", src,
                  dst, type));
  }
  added_out_[src].push_back(Edge{dst, type, weight});
  added_in_[dst].push_back(Edge{src, type, weight});
  out_weight_delta_[src] += weight;
  ++num_added_;
  return Status::OK();
}

Status CsrOverlay::RemoveEdge(NodeId src, NodeId dst, EdgeTypeId type) {
  if (!base_->IsValidNode(src) || !base_->IsValidNode(dst)) {
    return Status::InvalidArgument(StrFormat(
        "csr overlay RemoveEdge(%u, %u): node out of range", src, dst));
  }
  TouchEdge(src, dst);
  // Undo an overlay addition first, if present.
  if (auto it = added_out_.find(src); it != added_out_.end()) {
    double w = EraseEntry(&it->second, dst, type);
    if (w >= 0.0) {
      if (it->second.empty()) added_out_.erase(it);
      auto in_it = added_in_.find(dst);
      EraseEntry(&in_it->second, src, type);
      if (in_it->second.empty()) added_in_.erase(in_it);
      out_weight_delta_[src] -= w;
      --num_added_;
      return Status::OK();
    }
  }
  EdgeRef ref{src, dst, type};
  if (removed_.count(ref) > 0) {
    return Status::NotFound(
        StrFormat("csr overlay: edge (%u, %u, type=%u) already removed", src,
                  dst, type));
  }
  double base_weight = base_->EdgeWeight(src, dst, type);
  if (base_weight <= 0.0) {
    return Status::NotFound(
        StrFormat("csr overlay: edge (%u, %u, type=%u) not present in base",
                  src, dst, type));
  }
  removed_.insert(ref);
  ++removed_src_[src];
  ++removed_dst_[dst];
  out_weight_delta_[src] -= base_weight;
  return Status::OK();
}

Status CsrOverlay::SetWeight(NodeId src, NodeId dst, EdgeTypeId type,
                             double weight) {
  if (!base_->IsValidNode(src) || !base_->IsValidNode(dst)) {
    return Status::InvalidArgument(StrFormat(
        "csr overlay SetWeight(%u, %u): node out of range", src, dst));
  }
  TouchEdge(src, dst);
  if (!(weight > 0.0)) {
    return Status::InvalidArgument(
        "csr overlay SetWeight: weight must be positive");
  }
  // Overlay-added edge: update in place.
  if (auto it = added_out_.find(src); it != added_out_.end()) {
    for (Edge& e : it->second) {
      if (e.node == dst && e.type == type) {
        out_weight_delta_[src] += weight - e.weight;
        e.weight = weight;
        for (Edge& in : added_in_[dst]) {
          if (in.node == src && in.type == type) {
            in.weight = weight;
            break;
          }
        }
        return Status::OK();
      }
    }
  }
  // Base edge: mask the original and overlay a re-weighted copy (see
  // GraphOverlay::SetWeight for the rationale).
  EdgeRef ref{src, dst, type};
  double base_weight = base_->EdgeWeight(src, dst, type);
  if (base_weight <= 0.0 || removed_.count(ref) > 0) {
    return Status::NotFound(
        StrFormat("csr overlay SetWeight: edge (%u, %u, type=%u) not present",
                  src, dst, type));
  }
  removed_.insert(ref);
  ++removed_src_[src];
  ++removed_dst_[dst];
  added_out_[src].push_back(Edge{dst, type, weight});
  added_in_[dst].push_back(Edge{src, type, weight});
  ++num_added_;
  out_weight_delta_[src] += weight - base_weight;
  return Status::OK();
}

void CsrOverlay::Clear() {
  for (NodeId n : touched_nodes_) touched_[n] = 0;
  touched_nodes_.clear();
  removed_.clear();
  removed_src_.clear();
  removed_dst_.clear();
  added_out_.clear();
  added_in_.clear();
  out_weight_delta_.clear();
  num_added_ = 0;
}

std::vector<EdgeRef> CsrOverlay::AddedEdges() const {
  std::vector<EdgeRef> out;
  out.reserve(num_added_);
  for (const auto& [src, edges] : added_out_) {
    for (const Edge& e : edges) out.push_back(EdgeRef{src, e.node, e.type});
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<EdgeRef> CsrOverlay::RemovedEdges() const {
  std::vector<EdgeRef> out(removed_.begin(), removed_.end());
  std::sort(out.begin(), out.end());
  return out;
}

size_t CsrOverlay::OutDegree(NodeId n) const {
  size_t degree = base_->OutDegree(n);
  if ((touched_[n] & kOutTouched) == 0) return degree;
  if (auto it = removed_src_.find(n); it != removed_src_.end()) {
    degree -= it->second;
  }
  if (auto it = added_out_.find(n); it != added_out_.end()) {
    degree += it->second.size();
  }
  return degree;
}

size_t CsrOverlay::InDegree(NodeId n) const {
  size_t degree = base_->InDegree(n);
  if ((touched_[n] & kInTouched) == 0) return degree;
  if (auto it = removed_dst_.find(n); it != removed_dst_.end()) {
    degree -= it->second;
  }
  if (auto it = added_in_.find(n); it != added_in_.end()) {
    degree += it->second.size();
  }
  return degree;
}

bool CsrOverlay::HasEdge(NodeId src, NodeId dst) const {
  bool found = false;
  base_->ForEachOutEdge(src, [&](NodeId d, EdgeTypeId t, double) {
    if (d == dst && removed_.count(EdgeRef{src, dst, t}) == 0) found = true;
  });
  if (found) return true;
  if (auto it = added_out_.find(src); it != added_out_.end()) {
    for (const Edge& e : it->second) {
      if (e.node == dst) return true;
    }
  }
  return false;
}

bool CsrOverlay::HasEdge(NodeId src, NodeId dst, EdgeTypeId type) const {
  // A masked base edge may still exist as an overlay copy (SetWeight), so
  // always consult the added list too.
  if (base_->HasEdge(src, dst, type) &&
      removed_.count(EdgeRef{src, dst, type}) == 0) {
    return true;
  }
  if (auto it = added_out_.find(src); it != added_out_.end()) {
    for (const Edge& e : it->second) {
      if (e.node == dst && e.type == type) return true;
    }
  }
  return false;
}

}  // namespace emigre::graph
