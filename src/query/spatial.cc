#include "src/query/spatial.h"

#include <algorithm>

#include "src/common/metrics.h"
#include "src/common/request_context.h"
#include "src/index/zorder.h"

namespace ccam {

namespace {

/// Composite Z-key: the 32-bit Morton code in the high half, the node-id
/// in the low half — keeps B+ tree keys unique when nodes share a cell.
uint64_t CompositeKey(uint64_t code, NodeId id) {
  return (code << 32) | id;
}

uint64_t CodePart(uint64_t key) { return key >> 32; }

}  // namespace

SpatialQueryEngine::SpatialQueryEngine() = default;

uint64_t SpatialQueryEngine::CodeOf(double x, double y) const {
  return ZOrderFromPoint(x, y, min_coord_, max_coord_);
}

Result<std::unique_ptr<SpatialQueryEngine>> SpatialQueryEngine::Build(
    NetworkReader* am) {
  auto engine = std::unique_ptr<SpatialQueryEngine>(new SpatialQueryEngine());
  engine->am_ = am;
  engine->zdisk_ = std::make_unique<DiskManager>(1024);
  engine->zpool_ = std::make_unique<BufferPool>(engine->zdisk_.get(), 64);
  engine->ztree_ = std::make_unique<BPlusTree>(engine->zdisk_.get(),
                                               engine->zpool_.get());

  // Scan every record once for coordinates. LiveNodeIds() merges the
  // mutation overlay when `am` is a snapshot session.
  std::vector<NodeId> ids = am->LiveNodeIds();

  struct Point {
    NodeId id;
    double x;
    double y;
  };
  std::vector<Point> points;
  points.reserve(ids.size());
  bool first = true;
  RequestContext* ctx = am->request_context();
  for (NodeId id : ids) {
    if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
    NodeRecord rec;
    CCAM_ASSIGN_OR_RETURN(rec, am->Find(id));
    points.push_back({id, rec.x, rec.y});
    if (first) {
      engine->min_coord_ = std::min(rec.x, rec.y);
      engine->max_coord_ = std::max(rec.x, rec.y);
      first = false;
    } else {
      engine->min_coord_ = std::min({engine->min_coord_, rec.x, rec.y});
      engine->max_coord_ = std::max({engine->max_coord_, rec.x, rec.y});
    }
  }

  std::vector<std::pair<uint64_t, uint64_t>> entries;
  entries.reserve(points.size());
  for (const Point& p : points) {
    entries.emplace_back(CompositeKey(engine->CodeOf(p.x, p.y), p.id), p.id);
    engine->rtree_.Insert(Rect::Point(p.x, p.y), p.id);
  }
  std::sort(entries.begin(), entries.end());
  CCAM_RETURN_NOT_OK(engine->ztree_->BulkLoad(entries));

  // The build scan is not part of any query measurement.
  am->ResetIoStats();
  return engine;
}

Status SpatialQueryEngine::InsertNode(NodeId id, double x, double y) {
  CCAM_RETURN_NOT_OK(ztree_->Insert(CompositeKey(CodeOf(x, y), id), id));
  rtree_.Insert(Rect::Point(x, y), id);
  return Status::OK();
}

Status SpatialQueryEngine::RemoveNode(NodeId id, double x, double y) {
  CCAM_RETURN_NOT_OK(ztree_->Delete(CompositeKey(CodeOf(x, y), id)));
  return rtree_.Delete(Rect::Point(x, y), id);
}

Result<SpatialQueryEngine::WindowResult> SpatialQueryEngine::WindowQuery(
    double xmin, double ymin, double xmax, double ymax, IndexKind kind) {
  if (xmin > xmax || ymin > ymax) {
    return Status::InvalidArgument("inverted query window");
  }
  WindowResult result;
  QuerySpan span(am_->metrics(), "query.spatial");
  IoStats before = am_->DataIoStats();

  std::vector<NodeId> candidates;
  if (kind == IndexKind::kRTree) {
    for (uint64_t v : rtree_.Search({xmin, ymin, xmax, ymax})) {
      candidates.push_back(static_cast<NodeId>(v));
    }
    std::sort(candidates.begin(), candidates.end());
  } else {
    // Z-order scan with BIGMIN skipping over dead curve segments.
    const uint64_t min_code = CodeOf(xmin, ymin);
    const uint64_t max_code = CodeOf(xmax, ymax);
    const uint64_t end_key = CompositeKey(max_code, kInvalidNodeId);
    auto it = ztree_->Seek(CompositeKey(min_code, 0));
    while (it.Valid() && it.key() <= end_key) {
      uint64_t code = CodePart(it.key());
      ++result.entries_scanned;
      if (ZOrderInRect(code, min_code, max_code)) {
        candidates.push_back(static_cast<NodeId>(it.value()));
        it.Next();
        continue;
      }
      uint64_t bigmin = ZOrderBigMin(code, min_code, max_code);
      if (bigmin <= code) break;  // nothing above: done
      ++result.bigmin_jumps;
      it = ztree_->Seek(CompositeKey(bigmin, 0));
    }
  }

  // Fetch the candidate records through the access method (this is where
  // the clustering pays off) and filter exactly on the coordinates — the
  // Z-cells are quantized, so boundary cells may hold near-misses.
  RequestContext* ctx = am_->request_context();
  for (NodeId id : candidates) {
    if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
    NodeRecord rec;
    CCAM_ASSIGN_OR_RETURN(rec, am_->Find(id));
    if (rec.x >= xmin && rec.x <= xmax && rec.y >= ymin && rec.y <= ymax) {
      result.records.push_back(std::move(rec));
    }
  }
  IoStats after = am_->DataIoStats();
  result.data_page_accesses = (after - before).Accesses();
  return result;
}

Result<SpatialQueryEngine::NearestResult>
SpatialQueryEngine::NearestNeighbors(double x, double y, size_t k) {
  NearestResult result;
  QuerySpan span(am_->metrics(), "query.spatial");
  IoStats before = am_->DataIoStats();
  RequestContext* ctx = am_->request_context();
  for (uint64_t v : rtree_.KNearest(x, y, k)) {
    if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
    NodeRecord rec;
    CCAM_ASSIGN_OR_RETURN(rec, am_->Find(static_cast<NodeId>(v)));
    result.records.push_back(std::move(rec));
  }
  IoStats after = am_->DataIoStats();
  result.data_page_accesses = (after - before).Accesses();
  return result;
}

}  // namespace ccam
