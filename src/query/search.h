#ifndef CCAM_QUERY_SEARCH_H_
#define CCAM_QUERY_SEARCH_H_

#include <vector>

#include "src/common/result.h"
#include "src/core/access_method.h"

namespace ccam {

/// Outcome of a shortest-path search over an access method.
struct SearchResult {
  std::vector<NodeId> path;  // src..dst inclusive; empty if unreachable
  double cost = 0.0;
  size_t nodes_expanded = 0;
  uint64_t page_accesses = 0;

  bool Found() const { return !path.empty(); }
};

/// Dijkstra over the paged network, expanding nodes with Get-successors()
/// (the paper's motivating use of the operation in graph search). Every
/// record access goes through the access method, so the returned
/// `page_accesses` reflects the clustering quality.
Result<SearchResult> ShortestPathDijkstra(NetworkReader* am, NodeId src,
                                          NodeId dst);

/// A* with a Euclidean-distance heuristic scaled by `heuristic_weight`
/// (the generators produce edge costs ~ distance * U(1-s, 1+s); a weight
/// of 1-s keeps the heuristic admissible).
Result<SearchResult> ShortestPathAStar(NetworkReader* am, NodeId src,
                                       NodeId dst,
                                       double heuristic_weight = 0.7);

/// Multi-source Dijkstra: shortest distance from any of `sources` to every
/// reachable node. Returns (node, distance) pairs and charges the I/O to
/// `page_accesses`. Used by location-allocation evaluation.
struct MultiSourceResult {
  std::vector<std::pair<NodeId, double>> distances;
  uint64_t page_accesses = 0;
};
Result<MultiSourceResult> MultiSourceDistances(
    NetworkReader* am, const std::vector<NodeId>& sources);

}  // namespace ccam

#endif  // CCAM_QUERY_SEARCH_H_
