// Answers computed by the benchmark from the in-memory Network alone, apart
// from the access method under test: route and route-unit folds over the
// edge costs, and a plain binary-heap Dijkstra.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/graph/network.h"
#include "src/graph/route.h"
#include "src/query/aggregate.h"

namespace perfbench {

class Oracle {
 public:
  explicit Oracle(const ccam::Network& network);

  /// Sum of the route's edge costs, folded in route order; false when an
  /// edge is missing.
  bool RouteCost(const ccam::Route& route, double* cost) const;

  /// Total/min/max edge cost, edge count and distinct-node count of a
  /// route-unit; false when an edge is missing.
  bool UnitAggregate(const ccam::RouteUnit& unit,
                     ccam::RouteUnitAggregate* out) const;

  /// Shortest-path cost from `src` to `dst`; infinity when unreachable.
  double ShortestCost(ccam::NodeId src, ccam::NodeId dst) const;

  /// The node that a Dijkstra from `src` settles `rank`-th (src itself is
  /// rank 0), or kInvalidNodeId when fewer nodes are reachable. Pairs at
  /// one Dijkstra rank give searches of like difficulty.
  ccam::NodeId NodeAtRank(ccam::NodeId src, size_t rank) const;

  /// Empty when `path` runs from `src` to `dst` over existing edges whose
  /// costs sum to `cost` within 1e-6 relative; otherwise what is wrong.
  std::string CheckPath(const std::vector<ccam::NodeId>& path,
                        ccam::NodeId src, ccam::NodeId dst,
                        double cost) const;

 private:
  bool EdgeCost(ccam::NodeId u, ccam::NodeId v, float* cost) const;
  struct Settled {
    uint32_t last = UINT32_MAX;  // index of the last settled node
    double cost = 0.0;           // its distance from the source
    size_t count = 0;            // nodes settled
  };
  /// Dijkstra over node indices from `src` until `dst` (UINT32_MAX for
  /// none) is settled or `max_settled` nodes are.
  Settled Dijkstra(uint32_t src, uint32_t dst, size_t max_settled) const;

  std::vector<ccam::NodeId> ids_;

  std::unordered_map<ccam::NodeId, uint32_t> index_;
  std::vector<uint32_t> offsets_;  // CSR over successor lists
  std::vector<uint32_t> targets_;
  std::vector<float> costs_;
};

/// True when |a - b| is within 1e-6 relative (the CH/Dijkstra tolerance
/// of the repository's own tests: shortcut costs are sums in another
/// order).
bool SameCost(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
