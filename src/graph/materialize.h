#ifndef EMIGRE_GRAPH_MATERIALIZE_H_
#define EMIGRE_GRAPH_MATERIALIZE_H_

#include <memory>
#include <string>
#include <type_traits>

#include "graph/hin_graph.h"
#include "graph/types.h"

namespace emigre::graph {

/// \brief Rebuilds a mutable `HinGraph` from any graph view that carries
/// the full metadata surface (type names + labels) — a `CsrSnapshotView`,
/// or another `HinGraph` (plain copy).
///
/// The CLI commands that need a mutable graph (stats, experiment,
/// selfcheck) materialize an mmap-backed snapshot this way. Out-adjacency
/// order is preserved exactly (CSR column order); the in-adjacency of each
/// node is re-derived in (src, out-position) order, which only matters for
/// the floating-point summation order of reverse pushes — the push
/// estimates stay within their ε contract.
template <typename G>
std::unique_ptr<HinGraph> MaterializeHinGraph(const G& g) {
  if constexpr (std::is_same_v<G, HinGraph>) {
    return std::make_unique<HinGraph>(g);
  } else {
    auto out = std::make_unique<HinGraph>();
    for (size_t t = 0; t < g.NumNodeTypes(); ++t) {
      out->RegisterNodeType(g.NodeTypeName(static_cast<NodeTypeId>(t)));
    }
    for (size_t t = 0; t < g.NumEdgeTypes(); ++t) {
      out->RegisterEdgeType(g.EdgeTypeName(static_cast<EdgeTypeId>(t)));
    }
    const size_t n = g.NumNodes();
    for (size_t i = 0; i < n; ++i) {
      const NodeId node = static_cast<NodeId>(i);
      out->AddNode(g.NodeType(node), std::string(g.Label(node)));
    }
    for (size_t i = 0; i < n; ++i) {
      const NodeId src = static_cast<NodeId>(i);
      g.ForEachOutEdge(src, [&](NodeId dst, EdgeTypeId type, double w) {
        out->AddEdge(src, dst, type, w).CheckOK();
      });
    }
    return out;
  }
}

}  // namespace emigre::graph

#endif  // EMIGRE_GRAPH_MATERIALIZE_H_
