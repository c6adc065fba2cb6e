#ifndef CCAM_SHARD_SHARD_QUERY_H_
#define CCAM_SHARD_SHARD_QUERY_H_

#include "src/query/aggregate.h"
#include "src/query/route_eval.h"
#include "src/shard/sharded_network_file.h"

namespace ccam {

/// Outcome of one sharded route evaluation: the plain route-evaluation
/// aggregate plus the routing facts the shard layer adds.
struct ShardedRouteResult {
  RouteEvalResult eval;
  /// Shards the router planned for this route (1 = fast path).
  size_t fanout = 0;
  /// Route edges whose endpoints live in different shards.
  uint64_t cut_crossings = 0;
};

/// Route evaluation over a sharded file. The router first computes the
/// minimal shard set of the route's nodes:
///
///  * single shard — dispatches the whole route straight to that shard's
///    per-file ReadSession (the existing EvaluateRoute operator, zero
///    facade overhead);
///  * multiple shards — splits the route into maximal single-shard runs
///    and evaluates each run on its owner shard. A run deliberately
///    *includes* the first node past the cut: that node's record is the
///    shard's halo copy — bit-identical to the owner's — so the crossing
///    edge's cost is read locally and the next run re-anchors with one
///    Find() in the neighbor's own shard. Costs, edge counts and page
///    accesses sum across runs; no edge is counted twice.
///
/// Results are identical to evaluating the route on the facade session
/// (or on the unsharded file); only the dispatch differs.
Result<ShardedRouteResult> EvaluateRouteSharded(ShardedQuerySession* session,
                                                const Route& route);

/// Aggregate over a route-unit on a sharded file: single-shard units
/// dispatch to that shard's session (fast path), cross-shard units run on
/// the facade session, whose per-call owner routing resolves every edge
/// endpoint from its owning shard (halo copies keep each Get-A-successor
/// local). `fanout`, when given, receives the planned shard count.
Result<RouteUnitAggregate> AggregateRouteUnitSharded(
    ShardedQuerySession* session, const RouteUnit& unit,
    size_t* fanout = nullptr);

}  // namespace ccam

#endif  // CCAM_SHARD_SHARD_QUERY_H_
