#include "explain/search_space.h"

#include <algorithm>

#include "graph/csr_snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/reverse_push.h"
#include "util/string_util.h"

namespace emigre::explain {

namespace {

using graph::EdgeRef;
using graph::NodeId;

template <typename G>
Status ValidateInputs(const G& g, NodeId user, NodeId rec, NodeId wni) {
  if (!g.IsValidNode(user)) {
    return Status::InvalidArgument(StrFormat("invalid user node %u", user));
  }
  if (!g.IsValidNode(wni)) {
    return Status::InvalidArgument(StrFormat("invalid WNI node %u", wni));
  }
  if (rec != graph::kInvalidNode && !g.IsValidNode(rec)) {
    return Status::InvalidArgument(StrFormat("invalid rec node %u", rec));
  }
  if (rec == wni) {
    return Status::InvalidArgument(
        "WNI equals the current recommendation: nothing to explain");
  }
  return Status::OK();
}

/// PPR(·, target), through the cache when one is provided. Cache entries
/// are sparse; call sites index by arbitrary node id, so densify here.
template <typename G>
std::vector<double> PprTo(const G& g, NodeId target, const EmigreOptions& opts,
                          ppr::ReversePushCache<graph::CsrGraph>* cache) {
  if (target == graph::kInvalidNode || !g.IsValidNode(target)) {
    return std::vector<double>(g.NumNodes(), 0.0);
  }
  if (cache != nullptr) return cache->Get(target)->ToDense(g.NumNodes());
  return ppr::ReversePush(g, target, opts.rec.ppr).estimate;
}

void SortByContributionDesc(std::vector<CandidateAction>* actions) {
  std::sort(actions->begin(), actions->end(),
            [](const CandidateAction& a, const CandidateAction& b) {
              if (a.contribution != b.contribution) {
                return a.contribution > b.contribution;
              }
              return a.edge < b.edge;  // deterministic tie-break
            });
}

/// τ over the user's existing allowed edges: the Eq. 5 contributions summed,
/// i.e. the estimated rec-over-WNI dominance routed through user actions.
template <typename G>
double ComputeTau(const G& g, NodeId user,
                  const std::vector<double>& ppr_to_rec,
                  const std::vector<double>& ppr_to_wni,
                  const EmigreOptions& opts) {
  double tau = 0.0;
  g.ForEachOutEdge(user, [&](NodeId dst, graph::EdgeTypeId type, double w) {
    if (dst == user || !opts.IsAllowedEdgeType(type)) return;
    tau += w * (ppr_to_rec[dst] - ppr_to_wni[dst]);
  });
  return tau;
}

}  // namespace

template <typename G>
Result<SearchSpace> BuildRemoveSearchSpace(
    const G& g, NodeId user, NodeId rec, NodeId wni, const EmigreOptions& opts,
    ppr::ReversePushCache<graph::CsrGraph>* cache) {
  EMIGRE_SPAN("search_space");
  EMIGRE_RETURN_IF_ERROR(ValidateInputs(g, user, rec, wni));

  SearchSpace space;
  space.mode = Mode::kRemove;
  space.user = user;
  space.rec = rec;
  space.wni = wni;
  // PPR(·, WNI) and PPR(·, rec); rec may be absent (empty initial
  // recommendation list), in which case its vector is zero.
  space.ppr_to_wni = PprTo(g, wni, opts, cache);
  space.ppr_to_rec = PprTo(g, rec, opts, cache);

  g.ForEachOutEdge(user, [&](NodeId dst, graph::EdgeTypeId type, double w) {
    if (dst == user || !opts.IsAllowedEdgeType(type)) return;
    double contribution =
        w * (space.ppr_to_rec[dst] - space.ppr_to_wni[dst]);  // Eq. 5
    space.actions.push_back(
        CandidateAction{EdgeRef{user, dst, type}, contribution});
    space.tau += contribution;
  });
  SortByContributionDesc(&space.actions);
  EMIGRE_COUNTER("explain.search_space.builds").Increment();
  EMIGRE_COUNTER("explain.search_space.candidates")
      .Increment(space.actions.size());
  return space;
}

template <typename G>
Result<SearchSpace> BuildAddSearchSpace(
    const G& g, NodeId user, NodeId rec, NodeId wni, const EmigreOptions& opts,
    ppr::ReversePushCache<graph::CsrGraph>* cache) {
  EMIGRE_SPAN("search_space");
  EMIGRE_RETURN_IF_ERROR(ValidateInputs(g, user, rec, wni));
  if (opts.add_edge_type == graph::kInvalidEdgeType) {
    return Status::InvalidArgument(
        "Add mode requires EmigreOptions::add_edge_type");
  }

  SearchSpace space;
  space.mode = Mode::kAdd;
  space.user = user;
  space.rec = rec;
  space.wni = wni;
  space.ppr_to_wni = PprTo(g, wni, opts, cache);
  space.ppr_to_rec = PprTo(g, rec, opts, cache);
  space.tau = ComputeTau(g, user, space.ppr_to_rec, space.ppr_to_wni, opts);

  // Candidate endpoints: the Reverse-Local-Push frontier of WNI — nodes
  // whose walks reach WNI — restricted to items the user could act on:
  // item-typed, not the user, not WNI itself (an edge (u, WNI) would remove
  // WNI from the recommendable set), and no existing (u, n) edge
  // (Definition 4.2's A+ requires (u, i) ∉ E).
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (space.ppr_to_wni[n] <= 0.0) continue;
    if (n == user || n == wni) continue;
    if (g.NodeType(n) != opts.rec.item_type) continue;
    if (g.HasEdge(user, n)) continue;
    double contribution =
        opts.add_edge_weight *
        (space.ppr_to_wni[n] - space.ppr_to_rec[n]);  // Eq. 6
    space.actions.push_back(
        CandidateAction{EdgeRef{user, n, opts.add_edge_type}, contribution});
  }
  SortByContributionDesc(&space.actions);
  if (opts.max_add_candidates > 0 &&
      space.actions.size() > opts.max_add_candidates) {
    space.actions.resize(opts.max_add_candidates);
  }
  EMIGRE_COUNTER("explain.search_space.builds").Increment();
  EMIGRE_COUNTER("explain.search_space.candidates")
      .Increment(space.actions.size());
  return space;
}

// Explicit instantiations: the classic in-memory graph and the mmap-backed
// snapshot view.
template Result<SearchSpace> BuildRemoveSearchSpace<graph::HinGraph>(
    const graph::HinGraph&, NodeId, NodeId, NodeId, const EmigreOptions&,
    ppr::ReversePushCache<graph::CsrGraph>*);
template Result<SearchSpace> BuildAddSearchSpace<graph::HinGraph>(
    const graph::HinGraph&, NodeId, NodeId, NodeId, const EmigreOptions&,
    ppr::ReversePushCache<graph::CsrGraph>*);
template Result<SearchSpace> BuildRemoveSearchSpace<graph::CsrSnapshotView>(
    const graph::CsrSnapshotView&, NodeId, NodeId, NodeId,
    const EmigreOptions&, ppr::ReversePushCache<graph::CsrGraph>*);
template Result<SearchSpace> BuildAddSearchSpace<graph::CsrSnapshotView>(
    const graph::CsrSnapshotView&, NodeId, NodeId, NodeId,
    const EmigreOptions&, ppr::ReversePushCache<graph::CsrGraph>*);

}  // namespace emigre::explain
