#include "src/query/route_eval.h"

#include "src/common/metrics.h"
#include "src/common/request_context.h"

namespace ccam {

Result<RouteEvalResult> EvaluateRoute(NetworkReader* am, const Route& route) {
  RouteEvalResult result;
  if (route.nodes.empty()) return result;
  QuerySpan span(am->metrics(), "query.route_eval");

  IoStats before = am->DataIoStats();
  NodeRecord current;
  CCAM_ASSIGN_OR_RETURN(current, am->Find(route.nodes[0]));
  RequestContext* ctx = am->request_context();
  for (size_t i = 1; i < route.nodes.size(); ++i) {
    if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
    NodeId next = route.nodes[i];
    float cost;
    {
      auto res = current.SuccessorCost(next);
      if (!res.ok()) return res.status();
      cost = *res;
    }
    CCAM_ASSIGN_OR_RETURN(current, am->GetASuccessor(current.id, next));
    result.total_cost += cost;
    ++result.num_edges;
  }
  IoStats after = am->DataIoStats();
  result.page_accesses = (after - before).Accesses();
  return result;
}

Result<double> MeanRouteEvalAccesses(NetworkReader* am,
                                     const std::vector<Route>& routes) {
  if (routes.empty()) return 0.0;
  uint64_t total = 0;
  for (const Route& route : routes) {
    RouteEvalResult one;
    CCAM_ASSIGN_OR_RETURN(one, EvaluateRoute(am, route));
    total += one.page_accesses;
  }
  return static_cast<double>(total) / static_cast<double>(routes.size());
}

}  // namespace ccam
