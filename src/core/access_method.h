#ifndef CCAM_CORE_ACCESS_METHOD_H_
#define CCAM_CORE_ACCESS_METHOD_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/graph/network.h"
#include "src/partition/partition.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/hierarchy_record.h"
#include "src/storage/io_stats.h"
#include "src/storage/record.h"

namespace ccam {

class MetricsRegistry;
class RequestContext;

/// Reorganization policies for maintenance operations (paper Table 1).
/// The policy order is the order of overhead incurred during an update:
/// higher order policies reorganize more pages and can achieve higher CRR.
enum class ReorgPolicy {
  /// No reorganization; only underflow/overflow handling.
  kFirstOrder,
  /// Reorganize the pages that must be updated anyhow:
  /// {Page(x)} ∪ PagesOfNbrs(x) for node arguments,
  /// {Page(u), Page(v)} for edge arguments.
  kSecondOrder,
  /// Additionally reorganize the neighbor pages in the page access graph.
  kHigherOrder,
};

const char* ReorgPolicyName(ReorgPolicy policy);

/// Tuning knobs shared by all network access methods.
struct AccessMethodOptions {
  /// Disk block size in bytes (the paper sweeps 512..4096).
  size_t page_size = 1024;
  /// Data buffer pool capacity in pages. The paper's route-evaluation
  /// experiment assumes a single one-page buffer.
  size_t buffer_pool_pages = 8;
  /// Page replacement policy of the data buffer pool.
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  /// Two-way partitioner used by CCAM's clustering and reorganization.
  PartitionAlgorithm partitioner = PartitionAlgorithm::kRatioCut;
  /// Partition by edge access weights (maximize WCRR) instead of uniform
  /// weights (maximize CRR).
  bool use_access_weights = false;
  /// Minimum page fill the clustering maintains (the paper's MinPgSize =
  /// half a page). Lower values trade space for CRR.
  double cluster_min_fill = 0.5;
  /// Maintain the paged B+ tree secondary index (CCAM's index; tracked
  /// under separate I/O counters because the paper's cost model assumes
  /// index pages are buffered).
  bool maintain_bptree_index = false;
  /// Buffer pool capacity for the index pages (the paper assumes index
  /// pages are buffered; shrink this to study index access cost).
  size_t index_pool_pages = 128;
  /// Worker threads for CCAM's clustering pipeline (static create and
  /// reorganization). 0 = hardware concurrency, 1 = sequential; the page
  /// assignment is bit-identical for every value.
  int num_threads = 0;
  /// Latch shards of the data buffer pool. 0 = automatic (small pools —
  /// including every paper experiment — collapse to a single shard, which
  /// reproduces the classic replacement behavior exactly).
  size_t buffer_pool_shards = 0;
  /// Durable mutations: every maintenance operation runs as a write-ahead
  /// logged transaction (begin, after-images, group commit with a flush
  /// barrier), page checksums are verified on read, and OpenImage replays
  /// committed transactions before trusting the image. Off by default: the
  /// paper's I/O accounting counts each page write exactly once, at the
  /// moment the operation performs it, which the staged commit necessarily
  /// defers (see INTERNALS, "Write-ahead logging & durable recovery").
  bool durability = false;
  /// Build and maintain the paged contraction-hierarchy overlay: create
  /// operations additionally contract the network in nested-dissection
  /// order and persist the shortcut graph on a separate "hier" disk, and
  /// ShortestPathCH answers route queries bidirectionally over it. Off by
  /// default — the paper's experiments (Table 5 / Fig 6) never touch the
  /// overlay, and every mutation invalidates it until the next build.
  bool hierarchy_overlay = false;
  uint64_t seed = 42;
};

/// The read side of a network access method: the three operations the
/// paper's queries use (Section 1.2) — Find, Get-A-successor and
/// Get-successors — plus the overlay read, the I/O counters, the node
/// placement and the request context. Every query operator except
/// ReplayTrace takes a NetworkReader, so it runs unchanged against a file,
/// a ReadSession (optionally pinned to a snapshot version) or a sharded
/// session.
class NetworkReader {
 public:
  virtual ~NetworkReader() = default;

  virtual std::string Name() const = 0;

  /// Retrieves the record of a node (one data-page access unless buffered).
  virtual Result<NodeRecord> Find(NodeId id) = 0;

  /// Retrieves the record of successor `to` of node `from`, checking the
  /// buffered data pages first (zero I/O when clustering co-paged them).
  virtual Result<NodeRecord> GetASuccessor(NodeId from, NodeId to) = 0;

  /// Retrieves records for all successors of `id`, harvesting co-paged and
  /// already-buffered successors without additional I/O.
  virtual Result<std::vector<NodeRecord>> GetSuccessors(NodeId id) = 0;

  /// Data-page I/O counters (the paper's metric). Index I/O is separate.
  /// Returned by value: the counters are atomics, snapshotted on read.
  virtual IoStats DataIoStats() const = 0;
  virtual void ResetIoStats() = 0;

  /// Current node -> data page assignment (the CRR is computed on this).
  virtual const NodePageMap& PageMap() const = 0;

  /// Node-ids visible to queries, ascending. The default derives them from
  /// PageMap(), which is exact for the paged files (the map is the live
  /// set); snapshot-pinned sessions override to merge their mutation
  /// overlay. Query operators that enumerate "all nodes" (component
  /// sweeps, spatial index builds) must use this instead of walking
  /// PageMap() directly.
  virtual std::vector<NodeId> LiveNodeIds() const {
    std::vector<NodeId> ids;
    ids.reserve(PageMap().size());
    for (const auto& kv : PageMap()) ids.push_back(kv.first);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// Number of node-ids LiveNodeIds() would return (sizing hint).
  virtual size_t NumLiveNodes() const { return PageMap().size(); }

  /// The metrics registry observing this reader, or nullptr when
  /// observability is detached (the default). Query operators open their
  /// "query.<op>" spans against this — a null registry makes every span
  /// inert, preserving the paper's accounting bit for bit.
  virtual MetricsRegistry* metrics() const { return nullptr; }

  /// The lifecycle context (deadline + cancellation token) governing the
  /// request currently executing against this reader, or nullptr when
  /// none is attached (the default). Query operators poll it at page-I/O
  /// and settle-loop boundaries; a null context makes every poll a single
  /// branch, preserving the paper's accounting bit for bit.
  virtual RequestContext* request_context() const { return nullptr; }

  /// --- Contraction-hierarchy overlay --------------------------------------
  /// True when a valid hierarchy overlay is attached (built and not
  /// invalidated by a mutation since). The default reader has none.
  virtual bool HasHierarchy() const { return false; }

  /// Reads one node's hierarchy record (rank plus upward/downward shortcut
  /// arcs) through the overlay's buffer pool; the page access is charged
  /// to HierarchyIoStats(), per session where applicable.
  virtual Result<HierarchyNodeRecord> HierarchyNode(NodeId id) {
    (void)id;
    return Status::NotSupported("no hierarchy overlay");
  }

  /// Overlay-page I/O counters, kept separate from DataIoStats() so the
  /// paper's data-page accounting is untouched by the overlay.
  virtual IoStats HierarchyIoStats() const { return IoStats{}; }
};

/// Abstract access method for networks: the operation set from the paper's
/// Section 1.2 — the reads of NetworkReader plus Create, Insert and
/// Delete, which maintain the clustering.
class AccessMethod : public NetworkReader {
 public:
  /// Bulk-creates the data file from `network`.
  virtual Status Create(const Network& network) = 0;

  /// Inserts a new node whose record carries its adjacency lists; entries
  /// referring to nodes not yet in the file are dropped (they are patched
  /// back when those nodes arrive). Updates the neighbors' lists.
  virtual Status InsertNode(const NodeRecord& record, ReorgPolicy policy) = 0;

  /// Deletes a node, patching the adjacency lists of its neighbors.
  virtual Status DeleteNode(NodeId id, ReorgPolicy policy) = 0;

  virtual Status InsertEdge(NodeId u, NodeId v, float cost,
                            ReorgPolicy policy) = 0;
  virtual Status DeleteEdge(NodeId u, NodeId v, ReorgPolicy policy) = 0;

  /// The data buffer pool (experiments vary its capacity and reset it).
  virtual BufferPool* buffer_pool() = 0;

  /// True if the last update operation caused a page split or merge.
  /// Table 5's harness uses this to "ignore page underflows and overflows
  /// ... to filter out the effect of reorganization policies".
  virtual bool LastOpChangedStructure() const = 0;

  /// Number of live data pages.
  virtual size_t NumDataPages() const = 0;
};

}  // namespace ccam

#endif  // CCAM_CORE_ACCESS_METHOD_H_
