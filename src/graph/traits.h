#ifndef EMIGRE_GRAPH_TRAITS_H_
#define EMIGRE_GRAPH_TRAITS_H_

#include <concepts>
#include <cstddef>

#include "graph/types.h"

namespace emigre::graph {

/// \brief Concept modeled by every graph view the PPR engines accept.
///
/// `HinGraph`, `CsrGraph`, `CsrSnapshotView`, `CsrOverlay` and
/// `BasicGraphOverlay` over any of them (`GraphOverlay` is the `HinGraph`
/// one) satisfy it. The traversal callbacks (`ForEachOutEdge` /
/// `ForEachInEdge`) are template members and therefore checked at use sites
/// rather than in the requires-clause; the concept still documents and
/// enforces the scalar surface.
template <typename G>
concept GraphLike = requires(const G& g, NodeId n) {
  { g.NumNodes() } -> std::convertible_to<size_t>;
  { g.OutDegree(n) } -> std::convertible_to<size_t>;
  { g.OutWeight(n) } -> std::convertible_to<double>;
  { g.NodeType(n) } -> std::convertible_to<NodeTypeId>;
};

}  // namespace emigre::graph

#endif  // EMIGRE_GRAPH_TRAITS_H_
