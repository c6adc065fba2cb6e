#ifndef CCAM_STORAGE_SNAPSHOT_MANAGER_H_
#define CCAM_STORAGE_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/ccam.h"
#include "src/core/read_session.h"
#include "src/storage/delta_log.h"

namespace ccam {

class SnapshotManager;

/// One immutable published image of the network plus the in-memory overlay
/// of mutations logged against it since it was published. The base file is
/// a fully reclustered Ccam with its own DiskManager and BufferPool, so
/// versions never share I/O state: readers of a retiring version keep
/// their buffered pages while the new version warms its own pool.
///
/// The overlay maps node-id -> the node's current full record (nullopt =
/// deleted). It only ever *grows* while the version is current; once a
/// newer version is published the overlay is frozen — the version is a
/// consistent snapshot of the instant it was superseded, which is exactly
/// what a reader pinned to it should keep seeing.
class SnapshotVersion {
 public:
  SnapshotVersion(uint64_t id, std::unique_ptr<Ccam> file)
      : id_(id), file_(std::move(file)) {}

  uint64_t id() const { return id_; }
  Ccam* file() const { return file_.get(); }

  /// True when the overlay has an entry for `id` (then `*out` is the
  /// overlay record, nullopt for a tombstone).
  bool OverlayLookup(NodeId id, std::optional<NodeRecord>* out) const {
    std::shared_lock<std::shared_mutex> lock(overlay_mu_);
    auto it = overlay_.find(id);
    if (it == overlay_.end()) return false;
    *out = it->second;
    return true;
  }

  size_t OverlaySize() const {
    std::shared_lock<std::shared_mutex> lock(overlay_mu_);
    return overlay_.size();
  }

  /// Node-ids visible in this version: the base image's page map plus
  /// overlay inserts, minus overlay tombstones. Ascending.
  std::vector<NodeId> LiveNodeIds() const;
  size_t NumLiveNodes() const;

  /// Sessions currently pinning this version.
  uint64_t refs() const { return refs_.load(std::memory_order_acquire); }

 private:
  friend class SnapshotManager;

  void OverlaySet(NodeId id, std::optional<NodeRecord> record) {
    std::unique_lock<std::shared_mutex> lock(overlay_mu_);
    overlay_[id] = std::move(record);
  }

  uint64_t id_;
  std::unique_ptr<Ccam> file_;
  mutable std::shared_mutex overlay_mu_;
  std::unordered_map<NodeId, std::optional<NodeRecord>> overlay_;
  std::atomic<uint64_t> refs_{0};
};

/// Tuning knobs of a snapshot store.
struct SnapshotOptions {
  /// Page size, pool size, partitioner and thread count of every version's
  /// base file (durability and hierarchy_overlay must stay off: the delta
  /// log is the store's durability mechanism, and overlays over a retiring
  /// base are out of scope — see docs/INTERNALS.md, "Snapshot lifecycle").
  AccessMethodOptions am;
  /// Directory holding MANIFEST, delta.log and the version images.
  std::string dir;
};

/// Versioned snapshot store: the immutable-snapshot + mutation-log split
/// of NetworkFile, with online reorganization by atomic version swap.
///
/// Layout of `dir`:
///   MANIFEST     current version id, image name, folded_lsn (CRC-sealed;
///                replaced only via MANIFEST.tmp + atomic rename — the
///                rename is the publish commit point)
///   v<N>.img     the version's base image (NetworkFile::SaveImage format)
///   delta.log    logical mutations since the current image's folded_lsn
///                (older frames may linger until the next compaction;
///                recovery filters by lsn, so they are harmless)
///
/// Mutations (single-writer) validate against the authoritative in-memory
/// network, append to the delta log and flush — the acknowledgment
/// barrier — then publish the affected nodes' new records into the current
/// version's overlay, where concurrent readers see them immediately.
///
/// Reorganization never touches the serving version: the reorganizer
/// copies the network under the writer lock (the cut), builds a fully
/// reclustered Ccam image off to the side (reusing the parallel
/// recursive-bisection clusterer), and publishes it by writing MANIFEST.tmp
/// and renaming it over MANIFEST. Readers keep their pinned version
/// throughout — a session re-acquires the current version only when it
/// calls Refresh() — and the old version's memory is released when its
/// session refcount drains. The old image file and the folded prefix of
/// the delta log are removed right after publication (the retire steps);
/// both are crash-safe because recovery trusts only MANIFEST.
///
/// Failpoints ("snapshot.*"), evaluated on the mutation and reorganization
/// protocol paths: snapshot.log.append, snapshot.log.flush (delta log),
/// snapshot.build (x2 around the image save), snapshot.publish (x3 around
/// the MANIFEST write + rename), snapshot.retire (x4 around image unlink
/// and log compaction). A kCrash action leaves the torn on-disk shape of
/// that instant and halts the store; tools/crashsim sweeps every site and
/// proves recovery lands on exactly the old or exactly the new version.
class SnapshotManager {
 public:
  ~SnapshotManager();

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// Initializes a fresh store in options.dir (which must be empty or
  /// absent) from `initial`, publishing it as version 1.
  static Result<std::unique_ptr<SnapshotManager>> Create(
      const SnapshotOptions& options, const Network& initial);

  /// Recovers a store from options.dir: reads MANIFEST, opens the image it
  /// names, replays delta-log records with lsn > folded_lsn, and removes
  /// stray files (unpublished build images, leftover tmp files). A torn
  /// delta-log tail is truncated; damage inside the durable region is a
  /// typed Corruption.
  static Result<std::unique_ptr<SnapshotManager>> Open(
      const SnapshotOptions& options);

  /// --- Mutations (single-writer) ----------------------------------------
  /// Validated against the live network (typed NotFound / AlreadyExists on
  /// logical conflicts), acknowledged at the delta-log flush barrier, then
  /// visible to every session of the current version. InsertNode follows
  /// NetworkFile::InsertNode's convention: adjacency entries referring to
  /// absent nodes are dropped.
  Status InsertNode(const NodeRecord& record);
  Status DeleteNode(NodeId id);
  Status InsertEdge(NodeId u, NodeId v, float cost);
  Status DeleteEdge(NodeId u, NodeId v);

  /// Opens a read session pinned to the current version. One session per
  /// thread; any number of sessions run concurrently with mutations and
  /// reorganizations.
  std::unique_ptr<ReadSession> OpenSession();

  /// --- Reorganization ----------------------------------------------------
  /// Builds and publishes a fully reclustered next version synchronously.
  Status ReorganizeNow();

  /// Starts the build on a background thread. Fails with AlreadyExists
  /// when a reorganization is already running.
  Status StartBackgroundReorg();

  /// Waits for the background build (if any) and returns its status.
  Status WaitForReorg();

  bool ReorgActive() const;

  /// Test hook: when gated, a reorganization completes its build, then
  /// parks before the publish step until ReleasePublishGate(). Lets tests
  /// compare reader behavior against a quiesced run while a build is
  /// provably in flight.
  void GatePublish(bool gate);
  void ReleasePublishGate();

  /// --- Introspection ------------------------------------------------------
  uint64_t CurrentVersionId() const;
  /// Versions still held in memory: the current one plus every retired
  /// version whose session refcount has not drained yet.
  size_t LiveVersionCount() const;
  /// Conservation counters: every session acquire is matched by exactly
  /// one release (asserted by tests/snapshot_swap_test.cc).
  uint64_t TotalAcquires() const {
    return total_acquires_.load(std::memory_order_acquire);
  }
  uint64_t TotalReleases() const {
    return total_releases_.load(std::memory_order_acquire);
  }
  uint64_t ReorgCount() const {
    return reorg_count_.load(std::memory_order_acquire);
  }
  /// Next log sequence number (1 + the last acknowledged mutation's lsn).
  uint64_t NextLsn() const;

  /// The data page anchoring `id`'s region in the current version: its
  /// base-image page, or the image's first page for nodes that exist only
  /// in the overlay (a placement hint for the serving layer's batching —
  /// never a correctness input). NotFound for absent or deleted nodes.
  Result<PageId> RegionOf(NodeId id);

  /// The authoritative logical network (the differential oracle's
  /// reference). Call while no mutation is in flight.
  const Network& network() const { return net_; }

  /// Structural invariants of the current version's base image plus a full
  /// comparison of the session-visible state (base + overlay) against the
  /// authoritative network. Call while quiescent.
  Status CheckConsistency();

  bool halted() const { return halted_.load(std::memory_order_acquire); }

  /// Attaches the injector consulted by the snapshot.* failpoints (the
  /// versions' private disks are deliberately not wired: the protocol's
  /// kill-point space is the snapshot.* set).
  void SetFaultInjector(FaultInjector* faults);

  /// Attaches the "snapshot.*" metric family: counters
  /// snapshot.publish / snapshot.retire / snapshot.acquire /
  /// snapshot.release / snapshot.mutations, gauge snapshot.live_versions,
  /// histogram snapshot.build_us. Null detaches; attach while quiescent.
  void SetMetrics(MetricsRegistry* metrics);
  MetricsRegistry* metrics() const { return metrics_; }

  const SnapshotOptions& options() const { return options_; }

  /// Validates `record` against `net` (logical preconditions only). Public
  /// so the crash harness can mirror the acknowledged stream through the
  /// exact same code path recovery replays.
  static Status ValidateMutation(const Network& net, const DeltaRecord& record);
  /// Applies a validated record; the single replay path shared by the
  /// mutation path, recovery and the crash harness's oracle, so all three
  /// produce identical networks.
  static Status ApplyMutation(Network* net, const DeltaRecord& record);

 private:
  friend class ReadSession;

  explicit SnapshotManager(const SnapshotOptions& options);

  std::shared_ptr<SnapshotVersion> Acquire();
  void Release(const std::shared_ptr<SnapshotVersion>& version);
  /// Nodes whose full records change when `record` is applied to `net`
  /// (evaluated before application; includes nodes being deleted).
  static std::vector<NodeId> AffectedNodes(const Network& net,
                                           const DeltaRecord& record);

  Status ApplyAndLog(DeltaRecord record);

  /// The full build/publish/retire protocol of one reorganization.
  Status DoReorganize();
  /// Publish + retire steps (the swap); requires mu_ held.
  Status PublishAndRetireLocked(std::unique_ptr<Ccam> file, uint64_t new_id,
                                uint64_t cut_lsn);

  /// Evaluates failpoint `point`; on a kCrash action runs `torn` (the
  /// site-specific torn on-disk effect, may be null) and halts the store.
  Status Failpoint(const char* point,
                   const std::function<void(size_t)>& torn = nullptr);

  Status WriteManifest(uint64_t version_id, const std::string& image_name,
                       uint64_t folded_lsn, size_t truncate_to);
  struct Manifest {
    uint64_t version_id = 0;
    std::string image_name;
    uint64_t folded_lsn = 0;
  };
  static Result<Manifest> ReadManifest(const std::string& path);

  std::string ManifestPath() const;
  std::string DeltaLogPath() const;
  std::string ImagePath(uint64_t version_id) const;
  static std::string ImageName(uint64_t version_id);

  SnapshotOptions options_;

  /// Guards net_, versions_, current_, the pending overlay, the delta log
  /// and the manifest I/O. Readers only take it inside Acquire/Release.
  mutable std::mutex mu_;
  Network net_;
  std::vector<std::shared_ptr<SnapshotVersion>> versions_;
  std::shared_ptr<SnapshotVersion> current_;
  uint64_t next_version_id_ = 1;
  uint64_t next_lsn_ = 1;
  uint64_t folded_lsn_ = 0;
  DeltaLog log_;
  /// Un-folded delta records (lsn > folded_lsn_), kept in memory so
  /// compaction can rewrite the log without re-reading the file.
  std::vector<DeltaRecord> retained_;

  /// Build state: mutations arriving while a build is in flight land in
  /// the pending overlay, which becomes the *new* version's overlay at
  /// publish (the new base contains the network as of the cut; the pending
  /// overlay is exactly the post-cut tail).
  bool build_active_ = false;
  std::unordered_map<NodeId, std::optional<NodeRecord>> pending_overlay_;

  std::thread reorg_thread_;
  bool reorg_thread_running_ = false;
  Status reorg_status_;

  /// Publish gate (test hook).
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool gate_publish_ = false;
  bool gate_open_ = false;

  std::atomic<bool> halted_{false};
  std::atomic<uint64_t> total_acquires_{0};
  std::atomic<uint64_t> total_releases_{0};
  std::atomic<uint64_t> reorg_count_{0};

  FaultInjector* faults_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  MetricCounter* m_publish_ = nullptr;
  MetricCounter* m_retire_ = nullptr;
  MetricCounter* m_acquire_ = nullptr;
  MetricCounter* m_release_ = nullptr;
  MetricCounter* m_mutations_ = nullptr;
  MetricGauge* g_live_versions_ = nullptr;
  MetricHistogram* h_build_us_ = nullptr;
};

}  // namespace ccam

#endif  // CCAM_STORAGE_SNAPSHOT_MANAGER_H_
