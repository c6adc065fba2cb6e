#include "src/query/traversal.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "src/common/metrics.h"
#include "src/common/request_context.h"

namespace ccam {

Result<ReachabilityResult> ReachableFrom(NetworkReader* am, NodeId source,
                                         int max_depth) {
  ReachabilityResult result;
  QuerySpan span(am->metrics(), "query.traversal");
  IoStats before = am->DataIoStats();

  NodeRecord src;
  CCAM_ASSIGN_OR_RETURN(src, am->Find(source));
  std::unordered_set<NodeId> seen{source};
  std::deque<std::pair<NodeId, int>> frontier{{source, 0}};
  RequestContext* ctx = am->request_context();
  while (!frontier.empty()) {
    if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
    auto [cur, depth] = frontier.front();
    frontier.pop_front();
    result.nodes.push_back(cur);
    if (max_depth >= 0 && depth >= max_depth) continue;
    std::vector<NodeRecord> successors;
    CCAM_ASSIGN_OR_RETURN(successors, am->GetSuccessors(cur));
    for (const NodeRecord& succ : successors) {
      if (seen.insert(succ.id).second) {
        frontier.emplace_back(succ.id, depth + 1);
      }
    }
  }

  IoStats after = am->DataIoStats();
  result.page_accesses = (after - before).Accesses();
  return result;
}

Result<ClosureSample> SampleTransitiveClosure(
    NetworkReader* am, const std::vector<NodeId>& sources, int max_depth) {
  ClosureSample sample;
  if (sources.empty()) return sample;
  size_t total_reachable = 0;
  for (NodeId source : sources) {
    ReachabilityResult one;
    CCAM_ASSIGN_OR_RETURN(one, ReachableFrom(am, source, max_depth));
    total_reachable += one.nodes.size();
    sample.page_accesses += one.page_accesses;
  }
  sample.mean_reachable =
      static_cast<double>(total_reachable) / sources.size();
  return sample;
}

Result<ComponentsResult> WeaklyConnectedComponents(NetworkReader* am) {
  ComponentsResult result;
  QuerySpan span(am->metrics(), "query.traversal");
  IoStats before = am->DataIoStats();

  // Snapshot the node set up front (for paged files this is the in-memory
  // page map; snapshot sessions merge their mutation overlay).
  std::vector<NodeId> all = am->LiveNodeIds();
  std::unordered_set<NodeId> live(all.begin(), all.end());

  std::unordered_set<NodeId> seen;
  RequestContext* ctx = am->request_context();
  for (NodeId start : all) {
    if (seen.count(start)) continue;
    size_t size = 0;
    std::deque<NodeId> frontier{start};
    seen.insert(start);
    while (!frontier.empty()) {
      if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
      NodeId cur = frontier.front();
      frontier.pop_front();
      ++size;
      NodeRecord rec;
      CCAM_ASSIGN_OR_RETURN(rec, am->Find(cur));
      for (NodeId nbr : rec.Neighbors()) {
        if (live.count(nbr) && seen.insert(nbr).second) {
          frontier.push_back(nbr);
        }
      }
    }
    result.components.emplace_back(start, size);
  }

  IoStats after = am->DataIoStats();
  result.page_accesses = (after - before).Accesses();
  return result;
}

}  // namespace ccam
