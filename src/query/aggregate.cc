#include "src/query/aggregate.h"

#include <algorithm>
#include <limits>
#include <set>
#include <unordered_map>

#include "src/common/metrics.h"
#include "src/common/request_context.h"
#include "src/query/search.h"

namespace ccam {

Result<RouteUnitAggregate> AggregateRouteUnit(NetworkReader* am,
                                              const RouteUnit& unit) {
  RouteUnitAggregate agg;
  QuerySpan span(am->metrics(), "query.aggregate");
  IoStats before = am->DataIoStats();

  // Retrieve each distinct member node once; edge costs come from the
  // source node's successor-list. Buffered pages make co-clustered
  // route-units cheap.
  std::set<NodeId> nodes;
  for (const auto& [u, v] : unit.edges) {
    nodes.insert(u);
    nodes.insert(v);
  }
  std::unordered_map<NodeId, NodeRecord> records;
  RequestContext* ctx = am->request_context();
  for (NodeId id : nodes) {
    if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
    NodeRecord rec;
    CCAM_ASSIGN_OR_RETURN(rec, am->Find(id));
    records.emplace(id, std::move(rec));
  }
  agg.num_nodes = nodes.size();
  agg.min_edge_cost = std::numeric_limits<double>::infinity();
  agg.max_edge_cost = -std::numeric_limits<double>::infinity();
  for (const auto& [u, v] : unit.edges) {
    auto cost = records.at(u).SuccessorCost(v);
    if (!cost.ok()) return cost.status();
    agg.total_edge_cost += *cost;
    agg.min_edge_cost = std::min(agg.min_edge_cost, double{*cost});
    agg.max_edge_cost = std::max(agg.max_edge_cost, double{*cost});
    ++agg.num_edges;
  }
  if (agg.num_edges == 0) {
    agg.min_edge_cost = 0.0;
    agg.max_edge_cost = 0.0;
  }

  IoStats after = am->DataIoStats();
  agg.page_accesses = (after - before).Accesses();
  return agg;
}

Result<TourEvalResult> EvaluateTour(NetworkReader* am, const Route& tour) {
  TourEvalResult result;
  if (tour.nodes.size() < 2) {
    return Status::InvalidArgument("a tour needs at least two nodes");
  }
  // Close the loop if the route does not already return to its origin.
  Route closed = tour;
  if (closed.nodes.front() != closed.nodes.back()) {
    closed.nodes.push_back(closed.nodes.front());
  }
  QuerySpan span(am->metrics(), "query.aggregate");
  IoStats before = am->DataIoStats();
  NodeRecord current;
  CCAM_ASSIGN_OR_RETURN(current, am->Find(closed.nodes[0]));
  RequestContext* ctx = am->request_context();
  for (size_t i = 1; i < closed.nodes.size(); ++i) {
    if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
    NodeId next = closed.nodes[i];
    auto cost = current.SuccessorCost(next);
    if (!cost.ok()) return cost.status();
    result.total_cost += *cost;
    ++result.num_edges;
    CCAM_ASSIGN_OR_RETURN(current, am->GetASuccessor(current.id, next));
  }
  IoStats after = am->DataIoStats();
  result.page_accesses = (after - before).Accesses();
  return result;
}

Result<LocationAllocationResult> EvaluateLocationAllocation(
    NetworkReader* am, const std::vector<NodeId>& facilities,
    const std::vector<NodeId>& demands) {
  LocationAllocationResult result;
  if (facilities.empty()) {
    return Status::InvalidArgument("no facilities");
  }
  MultiSourceResult distances;
  CCAM_ASSIGN_OR_RETURN(distances, MultiSourceDistances(am, facilities));
  std::unordered_map<NodeId, double> dist;
  for (const auto& [node, d] : distances.distances) dist[node] = d;
  for (NodeId demand : demands) {
    auto it = dist.find(demand);
    if (it == dist.end()) {
      ++result.num_unserved;
      continue;
    }
    ++result.num_served;
    result.total_cost += it->second;
    result.max_cost = std::max(result.max_cost, it->second);
  }
  result.page_accesses = distances.page_accesses;
  return result;
}

}  // namespace ccam
