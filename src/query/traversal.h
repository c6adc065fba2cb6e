#ifndef CCAM_QUERY_TRAVERSAL_H_
#define CCAM_QUERY_TRAVERSAL_H_

#include <vector>

#include "src/common/result.h"
#include "src/core/access_method.h"

namespace ccam {

/// Traversal-recursion workloads over a paged network — the query family
/// the related work (Larson & Deshpande's traversal recursion; Agrawal &
/// Jagadish; the paper's reference [23]) evaluates access methods on.
/// Every node expansion goes through Get-successors(), so the I/O of these
/// computations is governed by the CRR exactly as Section 3 predicts.

/// Nodes reachable from `source` by directed edges, in BFS order
/// (including the source). `max_depth` < 0 means unbounded.
struct ReachabilityResult {
  std::vector<NodeId> nodes;
  uint64_t page_accesses = 0;
};
Result<ReachabilityResult> ReachableFrom(NetworkReader* am, NodeId source,
                                         int max_depth = -1);

/// Per-source reachability counts for a sample of sources — the classic
/// "partial transitive closure" benchmark. Returns the total page
/// accesses and the mean reachable-set size.
struct ClosureSample {
  double mean_reachable = 0.0;
  uint64_t page_accesses = 0;
};
Result<ClosureSample> SampleTransitiveClosure(
    NetworkReader* am, const std::vector<NodeId>& sources, int max_depth = -1);

/// Weakly-connected components of the stored network (successor and
/// predecessor links both traversed). Returns one representative node id
/// per component, with component sizes.
struct ComponentsResult {
  std::vector<std::pair<NodeId, size_t>> components;  // (repr, size)
  uint64_t page_accesses = 0;
};
Result<ComponentsResult> WeaklyConnectedComponents(NetworkReader* am);

}  // namespace ccam

#endif  // CCAM_QUERY_TRAVERSAL_H_
