#include "src/query/search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/metrics.h"
#include "src/common/request_context.h"

namespace ccam {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Search working set: one dense slot per reached node (g, parent, closed
/// flag) indexed by an open-addressing table, plus a 4-ary heap with
/// decrease-key over the slots. Replaces the former lazy-deletion
/// std::priority_queue and its three per-node unordered_maps: one hash
/// probe per touched node instead of three, no duplicate heap entries, and
/// a shallower, cache-friendlier heap (4-ary beats binary here because
/// sift-down dominates and reads four children from one cache line).
/// Ties on priority settle by ascending node id, so the expansion order —
/// and hence the page-access count — is a pure function of the graph.
class SearchCore {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    NodeId id = kInvalidNodeId;
    uint32_t parent = kNil;    // slot index of the best predecessor
    double g = kInf;
    double priority = kInf;    // g (Dijkstra) or g + h (A*)
    uint32_t heap_pos = kNil;  // kNil when not in the open heap
    bool closed = false;
  };

  /// `expected` sizes the table for the whole node set up front (the
  /// paper-scale searches reach most of it), so searches never rehash.
  explicit SearchCore(size_t expected) {
    size_t cap = 64;
    while (cap < expected * 2) cap <<= 1;
    index_.assign(cap, kNil);
    mask_ = cap - 1;
    slots_.reserve(expected);
    heap_.reserve(expected);
  }

  /// Finds or creates the slot of `id`.
  uint32_t Intern(NodeId id) {
    size_t h = Hash(id);
    while (true) {
      uint32_t s = index_[h];
      if (s == kNil) {
        if ((slots_.size() + 1) * 10 > index_.size() * 7) {
          Grow();
          return Intern(id);
        }
        uint32_t idx = static_cast<uint32_t>(slots_.size());
        slots_.push_back(Slot{});
        slots_.back().id = id;
        index_[h] = idx;
        return idx;
      }
      if (slots_[s].id == id) return s;
      h = (h + 1) & mask_;
    }
  }

  Slot& slot(uint32_t s) { return slots_[s]; }

  bool HeapEmpty() const { return heap_.empty(); }

  /// Inserts `s` or restores heap order after its priority decreased.
  void HeapPushOrDecrease(uint32_t s) {
    if (slots_[s].heap_pos == kNil) {
      slots_[s].heap_pos = static_cast<uint32_t>(heap_.size());
      heap_.push_back(s);
    }
    SiftUp(slots_[s].heap_pos);
  }

  uint32_t HeapPop() {
    uint32_t top = heap_[0];
    slots_[top].heap_pos = kNil;
    uint32_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      slots_[last].heap_pos = 0;
      SiftDown(0);
    }
    return top;
  }

  /// Parent-chain walk from the slot of `dst` back to a root slot.
  std::vector<NodeId> ReconstructPath(uint32_t dst_slot) const {
    std::vector<NodeId> path;
    for (uint32_t s = dst_slot; s != kNil; s = slots_[s].parent) {
      path.push_back(slots_[s].id);
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

 private:
  bool Less(uint32_t a, uint32_t b) const {
    const Slot& x = slots_[a];
    const Slot& y = slots_[b];
    return x.priority != y.priority ? x.priority < y.priority : x.id < y.id;
  }

  void SiftUp(size_t pos) {
    uint32_t s = heap_[pos];
    while (pos > 0) {
      size_t up = (pos - 1) / 4;
      if (!Less(s, heap_[up])) break;
      heap_[pos] = heap_[up];
      slots_[heap_[pos]].heap_pos = static_cast<uint32_t>(pos);
      pos = up;
    }
    heap_[pos] = s;
    slots_[s].heap_pos = static_cast<uint32_t>(pos);
  }

  void SiftDown(size_t pos) {
    uint32_t s = heap_[pos];
    size_t n = heap_.size();
    while (true) {
      size_t first = pos * 4 + 1;
      if (first >= n) break;
      size_t best = first;
      size_t last = std::min(first + 4, n);
      for (size_t c = first + 1; c < last; ++c) {
        if (Less(heap_[c], heap_[best])) best = c;
      }
      if (!Less(heap_[best], s)) break;
      heap_[pos] = heap_[best];
      slots_[heap_[pos]].heap_pos = static_cast<uint32_t>(pos);
      pos = best;
    }
    heap_[pos] = s;
    slots_[s].heap_pos = static_cast<uint32_t>(pos);
  }

  size_t Hash(NodeId id) const {
    uint64_t x = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(x >> 32) & mask_;
  }

  void Grow() {
    std::vector<uint32_t> old = std::move(index_);
    index_.assign(old.size() * 2, kNil);
    mask_ = index_.size() - 1;
    for (uint32_t s = 0; s < slots_.size(); ++s) {
      size_t h = Hash(slots_[s].id);
      while (index_[h] != kNil) h = (h + 1) & mask_;
      index_[h] = s;
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> index_;  // open addressing, linear probing
  std::vector<uint32_t> heap_;   // 4-ary min-heap of slot indices
  size_t mask_ = 0;
};

/// Resolves the settled/relaxed counters ("query.search.settled" /
/// "query.search.relaxed") once per search; null registry = both null and
/// every site is one pointer test (the zero-overhead contract).
struct SearchCounters {
  explicit SearchCounters(MetricsRegistry* reg) {
    if (reg != nullptr) {
      settled = reg->GetCounter("query.search.settled");
      relaxed = reg->GetCounter("query.search.relaxed");
    }
  }
  ~SearchCounters() {
    if (settled != nullptr && n_settled > 0) settled->Inc(n_settled);
    if (relaxed != nullptr && n_relaxed > 0) relaxed->Inc(n_relaxed);
  }
  MetricCounter* settled = nullptr;
  MetricCounter* relaxed = nullptr;
  uint64_t n_settled = 0;
  uint64_t n_relaxed = 0;
};

/// Shared best-first search; `heuristic_weight` < 0 disables the heuristic
/// (plain Dijkstra).
Result<SearchResult> BestFirst(NetworkReader* am, NodeId src, NodeId dst,
                               double heuristic_weight) {
  SearchResult result;
  QuerySpan span(am->metrics(), "query.search");
  SearchCounters counters(am->metrics());
  IoStats before = am->DataIoStats();

  NodeRecord dst_rec;
  CCAM_ASSIGN_OR_RETURN(dst_rec, am->Find(dst));
  const double tx = dst_rec.x, ty = dst_rec.y;
  auto heuristic = [&](const NodeRecord& rec) {
    if (heuristic_weight < 0.0) return 0.0;
    return heuristic_weight * std::hypot(rec.x - tx, rec.y - ty);
  };

  SearchCore core(am->NumLiveNodes());

  NodeRecord src_rec;
  CCAM_ASSIGN_OR_RETURN(src_rec, am->Find(src));
  {
    uint32_t s = core.Intern(src);
    core.slot(s).g = 0.0;
    core.slot(s).priority = heuristic(src_rec);
    core.HeapPushOrDecrease(s);
  }

  RequestContext* ctx = am->request_context();
  while (!core.HeapEmpty()) {
    if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
    uint32_t cur = core.HeapPop();
    core.slot(cur).closed = true;
    NodeId node = core.slot(cur).id;
    double g = core.slot(cur).g;
    ++result.nodes_expanded;
    ++counters.n_settled;
    if (node == dst) {
      result.cost = g;
      result.path = core.ReconstructPath(cur);
      break;
    }
    std::vector<NodeRecord> successors;
    CCAM_ASSIGN_OR_RETURN(successors, am->GetSuccessors(node));
    // Costs come from the expanded node's successor-list.
    NodeRecord expanded;
    CCAM_ASSIGN_OR_RETURN(expanded, am->Find(node));  // buffered
    for (const NodeRecord& succ : successors) {
      uint32_t t = core.Intern(succ.id);
      if (core.slot(t).closed) continue;
      auto cost = expanded.SuccessorCost(succ.id);
      if (!cost.ok()) continue;
      ++counters.n_relaxed;
      double ng = g + *cost;
      SearchCore::Slot& ts = core.slot(t);
      if (ng < ts.g) {
        ts.g = ng;
        ts.parent = cur;
        ts.priority = ng + heuristic(succ);
        core.HeapPushOrDecrease(t);
      }
    }
  }

  IoStats after = am->DataIoStats();
  result.page_accesses = (after - before).Accesses();
  return result;
}

}  // namespace

Result<SearchResult> ShortestPathDijkstra(NetworkReader* am, NodeId src,
                                          NodeId dst) {
  return BestFirst(am, src, dst, -1.0);
}

Result<SearchResult> ShortestPathAStar(NetworkReader* am, NodeId src,
                                       NodeId dst, double heuristic_weight) {
  return BestFirst(am, src, dst, heuristic_weight);
}

Result<MultiSourceResult> MultiSourceDistances(
    NetworkReader* am, const std::vector<NodeId>& sources) {
  MultiSourceResult result;
  QuerySpan span(am->metrics(), "query.search");
  SearchCounters counters(am->metrics());
  IoStats before = am->DataIoStats();

  SearchCore core(am->NumLiveNodes());
  for (NodeId s : sources) {
    uint32_t idx = core.Intern(s);
    if (core.slot(idx).g == 0.0) continue;  // duplicate source
    core.slot(idx).g = 0.0;
    core.slot(idx).priority = 0.0;
    core.HeapPushOrDecrease(idx);
  }
  RequestContext* ctx = am->request_context();
  while (!core.HeapEmpty()) {
    if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
    uint32_t cur = core.HeapPop();
    core.slot(cur).closed = true;
    NodeId node = core.slot(cur).id;
    double g = core.slot(cur).g;
    ++counters.n_settled;
    result.distances.emplace_back(node, g);
    std::vector<NodeRecord> successors;
    CCAM_ASSIGN_OR_RETURN(successors, am->GetSuccessors(node));
    NodeRecord expanded;
    CCAM_ASSIGN_OR_RETURN(expanded, am->Find(node));
    for (const NodeRecord& succ : successors) {
      uint32_t t = core.Intern(succ.id);
      if (core.slot(t).closed) continue;
      auto cost = expanded.SuccessorCost(succ.id);
      if (!cost.ok()) continue;
      ++counters.n_relaxed;
      double ng = g + *cost;
      SearchCore::Slot& ts = core.slot(t);
      if (ng < ts.g) {
        ts.g = ng;
        ts.parent = cur;
        ts.priority = ng;
        core.HeapPushOrDecrease(t);
      }
    }
  }

  IoStats after = am->DataIoStats();
  result.page_accesses = (after - before).Accesses();
  return result;
}

}  // namespace ccam
