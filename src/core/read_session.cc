#include "src/core/read_session.h"

#include "src/storage/snapshot_manager.h"

namespace ccam {
namespace {

/// Deleting `succ` would have rewritten `id`'s overlay record to drop the
/// edge, so a tombstoned successor means the overlay is broken.
Status TombstonedSuccessor(NodeId succ, NodeId id) {
  return Status::Corruption("snapshot overlay: successor " +
                            std::to_string(succ) + " of node " +
                            std::to_string(id) + " is tombstoned");
}

}  // namespace

ReadSession::ReadSession(SnapshotManager* manager)
    : manager_(manager), version_(manager->Acquire()) {
  file_ = version_->file();
}

ReadSession::~ReadSession() {
  if (manager_ != nullptr) manager_->Release(version_);
}

void ReadSession::Refresh() {
  if (manager_ == nullptr) return;
  DebugCheckThread();
  if (manager_->CurrentVersionId() == version_->id()) return;
  std::shared_ptr<SnapshotVersion> next = manager_->Acquire();
  manager_->Release(version_);
  version_ = std::move(next);
  file_ = version_->file();
}

uint64_t ReadSession::version_id() const {
  return version_ != nullptr ? version_->id() : 0;
}

std::vector<NodeId> ReadSession::LiveNodeIds() const {
  return version_ != nullptr ? version_->LiveNodeIds()
                             : NetworkReader::LiveNodeIds();
}

size_t ReadSession::NumLiveNodes() const {
  return version_ != nullptr ? version_->NumLiveNodes()
                             : NetworkReader::NumLiveNodes();
}

MetricsRegistry* ReadSession::metrics() const {
  return manager_ != nullptr ? manager_->metrics() : file_->metrics();
}

std::optional<Result<NodeRecord>> ReadSession::FromOverlay(NodeId id) const {
  std::optional<NodeRecord> overlay;
  if (version_ == nullptr || !version_->OverlayLookup(id, &overlay)) {
    return std::nullopt;
  }
  if (!overlay.has_value()) {
    return Result<NodeRecord>(Status::NotFound("node " + std::to_string(id)));
  }
  return Result<NodeRecord>(std::move(*overlay));
}

Result<NodeRecord> ReadSession::Find(NodeId id) {
  CCAM_RETURN_NOT_OK(BeginRead());
  if (auto overlay = FromOverlay(id)) return std::move(*overlay);
  return file_->ReadRecord(id, &io_);
}

Result<std::vector<NodeRecord>> ReadSession::GetSuccessors(NodeId id) {
  CCAM_RETURN_NOT_OK(BeginRead());
  if (auto anchor = FromOverlay(id)) {
    if (!anchor->ok()) return anchor->status();
    // The anchor node mutated since this version published: its overlay
    // record carries the authoritative successor list. Resolve each
    // successor overlay-first; the base file serves the unchanged ones.
    std::vector<NodeRecord> out;
    out.reserve((*anchor)->succ.size());
    for (const AdjEntry& e : (*anchor)->succ) {
      auto succ = FromOverlay(e.node);
      if (succ.has_value() && !succ->ok()) {
        return TombstonedSuccessor(e.node, id);
      }
      if (!succ.has_value()) succ = file_->ReadRecord(e.node, &io_);
      if (!succ->ok()) return succ->status();
      out.push_back(std::move(**succ));
    }
    return out;
  }
  // Anchor unchanged: its base successor list is current (any edge change
  // involving id would have patched id into the overlay). Individual
  // successor *records* may still have mutated — substitute those.
  auto base = file_->GetSuccessorsTracked(id, &io_);
  if (!base.ok() || version_ == nullptr || version_->OverlaySize() == 0) {
    return base;
  }
  for (NodeRecord& rec : *base) {
    auto succ = FromOverlay(rec.id);
    if (!succ.has_value()) continue;
    if (!succ->ok()) return TombstonedSuccessor(rec.id, id);
    rec = std::move(**succ);
  }
  return base;
}

Result<HierarchyNodeRecord> ReadSession::HierarchyNode(NodeId id) {
  CCAM_RETURN_NOT_OK(BeginRead());
  if (!HasHierarchy()) return Status::NotSupported("no hierarchy overlay");
  return file_->ReadHierarchyNode(id, &hier_io_);
}

}  // namespace ccam
