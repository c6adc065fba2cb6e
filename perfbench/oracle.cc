#include "perfbench/oracle.h"

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <set>

namespace perfbench {

using ccam::NodeId;

bool SameCost(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * (1.0 + std::fabs(b));
}

Oracle::Oracle(const ccam::Network& network) {
  ids_ = network.NodeIds();
  index_.reserve(ids_.size());
  for (uint32_t i = 0; i < ids_.size(); ++i) index_.emplace(ids_[i], i);
  offsets_.reserve(ids_.size() + 1);
  offsets_.push_back(0);
  for (NodeId id : ids_) {
    for (const ccam::AdjEntry& e : network.node(id).succ) {
      targets_.push_back(index_.at(e.node));
      costs_.push_back(e.cost);
    }
    offsets_.push_back(static_cast<uint32_t>(targets_.size()));
  }
}

bool Oracle::EdgeCost(NodeId u, NodeId v, float* cost) const {
  auto iu = index_.find(u);
  auto iv = index_.find(v);
  if (iu == index_.end() || iv == index_.end()) return false;
  for (uint32_t k = offsets_[iu->second]; k < offsets_[iu->second + 1]; ++k) {
    if (targets_[k] == iv->second) {
      *cost = costs_[k];
      return true;
    }
  }
  return false;
}

bool Oracle::RouteCost(const ccam::Route& route, double* cost) const {
  double total = 0.0;
  for (size_t i = 1; i < route.nodes.size(); ++i) {
    float c = 0.0f;
    if (!EdgeCost(route.nodes[i - 1], route.nodes[i], &c)) return false;
    total += c;
  }
  *cost = total;
  return true;
}

bool Oracle::UnitAggregate(const ccam::RouteUnit& unit,
                           ccam::RouteUnitAggregate* out) const {
  ccam::RouteUnitAggregate agg;
  std::set<NodeId> nodes;
  agg.min_edge_cost = std::numeric_limits<double>::infinity();
  agg.max_edge_cost = -std::numeric_limits<double>::infinity();
  for (const auto& [u, v] : unit.edges) {
    float c = 0.0f;
    if (!EdgeCost(u, v, &c)) return false;
    nodes.insert(u);
    nodes.insert(v);
    agg.total_edge_cost += c;
    agg.min_edge_cost = std::min(agg.min_edge_cost, double{c});
    agg.max_edge_cost = std::max(agg.max_edge_cost, double{c});
    ++agg.num_edges;
  }
  if (agg.num_edges == 0) agg.min_edge_cost = agg.max_edge_cost = 0.0;
  agg.num_nodes = nodes.size();
  *out = agg;
  return true;
}

Oracle::Settled Oracle::Dijkstra(uint32_t src, uint32_t dst,
                                 size_t max_settled) const {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(ids_.size(), inf);
  std::vector<bool> settled(ids_.size(), false);
  using Item = std::pair<double, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[src] = 0.0;
  heap.emplace(0.0, src);
  Settled out;
  while (!heap.empty() && out.count < max_settled) {
    auto [d, u] = heap.top();
    heap.pop();
    if (settled[u]) continue;
    settled[u] = true;
    out = {u, d, out.count + 1};
    if (u == dst) break;
    for (uint32_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
      double nd = d + costs_[k];
      if (nd < dist[targets_[k]]) {
        dist[targets_[k]] = nd;
        heap.emplace(nd, targets_[k]);
      }
    }
  }
  return out;
}

double Oracle::ShortestCost(NodeId src, NodeId dst) const {
  auto is = index_.find(src);
  auto it = index_.find(dst);
  if (is == index_.end() || it == index_.end()) {
    return std::numeric_limits<double>::infinity();
  }
  Settled s = Dijkstra(is->second, it->second, ids_.size());
  return s.last == it->second ? s.cost
                              : std::numeric_limits<double>::infinity();
}

NodeId Oracle::NodeAtRank(NodeId src, size_t rank) const {
  auto is = index_.find(src);
  if (is == index_.end()) return ccam::kInvalidNodeId;
  Settled s = Dijkstra(is->second, UINT32_MAX, rank + 1);
  return s.count == rank + 1 ? ids_[s.last] : ccam::kInvalidNodeId;
}

std::string Oracle::CheckPath(const std::vector<NodeId>& path, NodeId src,
                              NodeId dst, double cost) const {
  if (path.empty()) return "empty path";
  if (path.front() != src || path.back() != dst) {
    return "path does not run from source to destination";
  }
  double total = 0.0;
  for (size_t i = 1; i < path.size(); ++i) {
    float c = 0.0f;
    if (!EdgeCost(path[i - 1], path[i], &c)) {
      return "path uses a missing edge (" + std::to_string(path[i - 1]) +
             "," + std::to_string(path[i]) + ")";
    }
    total += c;
  }
  if (!SameCost(total, cost)) {
    return "path edges sum to " + std::to_string(total) + ", reported " +
           std::to_string(cost);
  }
  return {};
}

}  // namespace perfbench
