// Benchmark program for the CCAM stack. One invocation runs one workload
// over a generated road map and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics by default, the per-layer metrics with --trace 1. Wall-clock
// figures (ops/s, p50/p99 per operation type) go to stderr.
//
//   ccam_perfbench --workload route_agg --seed 1 --seconds 5 --trace 0
//
// Every gated metric is a count or size of work measured from outside the
// program: page I/O from the files' I/O counters, heap allocations from
// the replacement operator new in alloc_count.cc. A run repeats whole
// rounds of the same operations until --seconds have passed; each round
// starts from the same file state, so on the single-client workloads
// every round costs exactly the same and the per-operation counts do not
// depend on how many rounds fit. See README.md.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/alloc_count.h"
#include "perfbench/counting_am.h"
#include "perfbench/oracle.h"
#include "perfbench/tracer.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/core/ccam.h"
#include "src/graph/generator.h"
#include "src/graph/route.h"
#include "src/partition/partition.h"
#include "src/query/aggregate.h"
#include "src/query/hierarchy.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"
#include "src/serve/loadgen.h"
#include "src/serve/query_service.h"

namespace perfbench {
namespace {

using ccam::AccessMethodOptions;
using ccam::Ccam;
using ccam::IoStats;
using ccam::Network;
using ccam::NodeId;
using ccam::NodeRecord;
using ccam::ReorgPolicy;
using ccam::Route;
using ccam::RouteUnit;
using ccam::Status;

// --- Input make-up -------------------------------------------------------
constexpr int kMapSide = 91;            // RoadMapOptions rows = cols
// The road map is the same in every run, like the paper's one city map;
// --seed draws the operations run over it.
constexpr uint64_t kMapSeed = 1995;
constexpr size_t kPageSize = 1024;
constexpr size_t kSmallPoolPages = 32;  // route_agg, path_search, update_mix
constexpr size_t kServePoolPages = 128;
constexpr int kServeWorkers = 2;
constexpr size_t kServeWindow = 16;     // requests the client keeps in flight
constexpr int kServeDistricts = 16;     // loadgen pools interleaved per round
constexpr size_t kServeRequestsPerDistrict = 1024;
constexpr size_t kSpanCapacity = 1 << 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 5.0;
  bool trace = false;
  std::string trace_out;
  std::string scratch = ".";
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  std::exit(1);
}

void Require(const Status& s, const std::string& what) {
  if (!s.ok()) Fail(what + ": " + s.ToString());
}

// --- Operations ------------------------------------------------------------
enum class OpKind {
  kRoute,
  kAggregate,
  kAStar,
  kCH,
  kDeleteNode,
  kInsertNode,
  kDeleteEdge,
  kInsertEdge,
  kCount
};
constexpr int kNumKinds = static_cast<int>(OpKind::kCount);

const char* KindName(OpKind k) {
  static const char* const kNames[] = {
      "route_eval",  "aggregate",   "astar",       "ch",
      "delete_node", "insert_node", "delete_edge", "insert_edge"};
  return kNames[static_cast<int>(k)];
}

bool IsSearch(OpKind k) { return k == OpKind::kAStar || k == OpKind::kCH; }

struct Op {
  OpKind kind;
  uint32_t arg;  // index into the Inputs vector of its kind
};

/// What one operation answered; compared against the oracle (first round)
/// and against the first round's answer (later rounds).
struct Answer {
  double cost = 0.0;
  double min = 0.0;
  double max = 0.0;
  uint64_t edges = 0;
  uint64_t nodes = 0;  // distinct nodes (aggregate), settled (search)
  std::vector<NodeId> path;

  friend bool operator==(const Answer&, const Answer&) = default;
};

struct Inputs {
  Network net;
  std::vector<Route> routes;
  std::vector<RouteUnit> units;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<NodeId> nodes;
  std::vector<NodeRecord> records;  // of `nodes`, for their reinsertion
  std::vector<Network::EdgeRecord> edges;
  std::vector<Op> ops;  // one round
};

/// Work counted over the measured rounds.
struct Tally {
  uint64_t ops = 0;
  uint64_t updates = 0;
  uint64_t searches = 0;
  uint64_t settled = 0;
  IoStats data;
  IoStats overlay;
  AllocTotals allocs;
  uint64_t calls = 0;
  uint64_t records = 0;
  uint64_t structure_changes = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_flushes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;

  void Add(const Tally& t) {
    ops += t.ops;
    updates += t.updates;
    searches += t.searches;
    settled += t.settled;
    data.reads += t.data.reads;
    data.writes += t.data.writes;
    overlay.reads += t.overlay.reads;
    overlay.writes += t.overlay.writes;
    allocs.count += t.allocs.count;
    allocs.bytes += t.allocs.bytes;
    calls += t.calls;
    records += t.records;
    structure_changes += t.structure_changes;
    wal_appends += t.wal_appends;
    wal_flushes += t.wal_flushes;
    pool_hits += t.pool_hits;
    pool_misses += t.pool_misses;
  }
  /// The counts a single-client round must repeat exactly.
  bool SameWork(const Tally& t) const {
    return ops == t.ops && settled == t.settled && data == t.data &&
           overlay == t.overlay && allocs.count == t.allocs.count &&
           allocs.bytes == t.allocs.bytes && calls == t.calls &&
           records == t.records && structure_changes == t.structure_changes &&
           wal_appends == t.wal_appends && wal_flushes == t.wal_flushes &&
           pool_hits == t.pool_hits && pool_misses == t.pool_misses;
  }
};

/// Everything a run reports.
struct Report {
  double setup_s = 0.0;
  AllocTotals setup_allocs;
  double create_ms = 0.0;
  double stored_kib = 0.0;
  double crr = 0.0;
  Tally tally;
  uint64_t rounds = 0;
  double busy_s = 0.0;  // time inside operations (serve: the request window)
  std::vector<uint64_t> latency_ns[kNumKinds];
  // Single-client breakdown by operation type (the stderr report).
  uint64_t kind_allocs[kNumKinds] = {};
  uint64_t kind_reads[kNumKinds] = {};
  uint64_t kind_settled[kNumKinds] = {};
  // Traced run: the program's relaxed-edge counters per search.
  double relaxed_per_search = 0.0;
  // serve_mix only.
  uint64_t served = 0;
  uint64_t batches = 0;
  uint64_t rejected = 0;
  uint64_t batch_size_sum = 0;
  std::vector<uint64_t> queue_us;
};

double Per(double num, double den) { return den > 0 ? num / den : 0.0; }

uint64_t Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

// --- Set-up ----------------------------------------------------------------
AccessMethodOptions BaseOptions() {
  AccessMethodOptions o;
  o.page_size = kPageSize;
  o.buffer_pool_pages = kSmallPoolPages;
  // Pinned instead of derived from hardware_concurrency(), so every count
  // is the same on every host.
  o.num_threads = 1;
  o.buffer_pool_shards = 1;
  o.seed = 42;
  return o;
}

Network MakeMap() {
  ccam::RoadMapOptions o;
  o.rows = kMapSide;
  o.cols = kMapSide;
  o.seed = kMapSeed;
  return ccam::GenerateRoadMap(o);
}

std::vector<RouteUnit> MakeUnits(const Network& net, int count, int length,
                                 uint64_t seed) {
  std::vector<RouteUnit> units;
  for (const Route& walk :
       ccam::GenerateRandomWalkRoutes(net, count, length, seed)) {
    RouteUnit unit;
    unit.name = "unit-" + std::to_string(units.size());
    for (size_t k = 1; k < walk.nodes.size(); ++k) {
      unit.edges.emplace_back(walk.nodes[k - 1], walk.nodes[k]);
    }
    units.push_back(std::move(unit));
  }
  return units;
}

/// `count` origin/destination pairs at Dijkstra rank `rank`: the origin
/// is uniform, the destination the rank-th node a Dijkstra from it settles.
/// Searches between such pairs do like amounts of work, so the mean over a
/// round moves little from seed to seed.
std::vector<std::pair<NodeId, NodeId>> MakePairs(const Network& net,
                                                 const Oracle& oracle,
                                                 int count, size_t rank,
                                                 uint64_t seed) {
  std::vector<NodeId> ids = net.NodeIds();
  ccam::Random rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < static_cast<size_t>(count)) {
    NodeId src = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    NodeId dst = oracle.NodeAtRank(src, rank);
    if (dst != ccam::kInvalidNodeId) pairs.emplace_back(src, dst);
  }
  return pairs;
}

/// Builds the file inside a counted program call, timing it as the
/// partition layer's create span.
void CreateFile(CountingAm* am, const Network& net, Report* report) {
  AllocTotals before = CountedAllocs();
  uint64_t t = NowNs();
  {
    ProgramCall call;
    Require(am->Create(net), "Create");
  }
  report->create_ms = (NowNs() - t) / 1e6;
  report->setup_allocs = CountedAllocs() - before;
}

double StoredKib(ccam::NetworkFile* file) {
  double bytes = static_cast<double>(file->NumDataPages()) * kPageSize;
  if (ccam::HierarchyOverlay* h = file->hierarchy()) {
    bytes += static_cast<double>(h->NumPages()) * h->page_size();
  }
  return bytes / 1024.0;
}

/// The input make-up, printed once per run to stderr.
void PrintMakeUp(const Network& net, ccam::NetworkFile* file) {
  ccam::HierarchyOverlay* h = file->hierarchy();
  std::fprintf(stderr,
               "perfbench: map nodes=%zu edges=%zu page_size=%zu "
               "data_pages=%zu overlay_pages=%zu overlay_page_size=%zu "
               "pool_frames=%zu\n",
               net.NumNodes(), net.NumEdges(), kPageSize,
               file->NumDataPages(), h != nullptr ? h->NumPages() : 0,
               h != nullptr ? h->page_size() : 0,
               file->buffer_pool()->capacity());
}

void ResetPools(ccam::NetworkFile* file) {
  Require(file->buffer_pool()->Reset(), "buffer pool reset");
  file->buffer_pool()->ResetCounters();
  if (ccam::HierarchyOverlay* h = file->hierarchy()) {
    Require(h->pool()->Reset(), "overlay pool reset");
  }
}

// --- Single-client rounds ----------------------------------------------------
Answer RunOp(CountingAm* am, const Inputs& in, const Op& op,
             uint64_t* settled) {
  const std::string where =
      std::string(KindName(op.kind)) + " #" + std::to_string(op.arg);
  Answer a;
  ProgramCall call;
  switch (op.kind) {
    case OpKind::kRoute: {
      auto r = ccam::EvaluateRoute(am, in.routes[op.arg]);
      Require(r.status(), where);
      a.cost = r->total_cost;
      a.edges = r->num_edges;
      break;
    }
    case OpKind::kAggregate: {
      auto r = ccam::AggregateRouteUnit(am, in.units[op.arg]);
      Require(r.status(), where);
      a.cost = r->total_edge_cost;
      a.min = r->min_edge_cost;
      a.max = r->max_edge_cost;
      a.edges = r->num_edges;
      a.nodes = r->num_nodes;
      break;
    }
    case OpKind::kAStar:
    case OpKind::kCH: {
      const auto& [src, dst] = in.pairs[op.arg];
      auto r = op.kind == OpKind::kAStar
                   ? ccam::ShortestPathAStar(am, src, dst)
                   : ccam::ShortestPathCH(am, src, dst);
      Require(r.status(), where);
      a.cost = r->cost;
      a.nodes = r->nodes_expanded;
      a.path = std::move(r->path);
      *settled += a.nodes;
      break;
    }
    case OpKind::kDeleteNode:
      Require(am->DeleteNode(in.nodes[op.arg], ReorgPolicy::kSecondOrder),
              where);
      break;
    case OpKind::kInsertNode:
      Require(am->InsertNode(in.records[op.arg], ReorgPolicy::kSecondOrder),
              where);
      break;
    case OpKind::kDeleteEdge: {
      const auto& e = in.edges[op.arg];
      Require(am->DeleteEdge(e.from, e.to, ReorgPolicy::kSecondOrder), where);
      break;
    }
    case OpKind::kInsertEdge: {
      const auto& e = in.edges[op.arg];
      Require(am->InsertEdge(e.from, e.to, e.cost, ReorgPolicy::kSecondOrder),
              where);
      break;
    }
    case OpKind::kCount:
      break;
  }
  return a;
}

// --- Checks against the oracle ---------------------------------------------
void CheckRoute(const Oracle& oracle, const Route& route, const Answer& a,
                const std::string& where) {
  double cost = 0.0;
  if (!oracle.RouteCost(route, &cost) || a.cost != cost ||
      a.edges + 1 != route.nodes.size()) {
    Fail(where + ": cost " + std::to_string(a.cost) + ", expected " +
         std::to_string(cost));
  }
}

/// `full`: also compare min/max cost and the distinct-node count, which
/// served responses do not carry.
void CheckUnit(const Oracle& oracle, const RouteUnit& unit, const Answer& a,
               bool full, const std::string& where) {
  ccam::RouteUnitAggregate want;
  if (!oracle.UnitAggregate(unit, &want) || a.cost != want.total_edge_cost ||
      a.edges != want.num_edges ||
      (full && (a.min != want.min_edge_cost || a.max != want.max_edge_cost ||
                a.nodes != want.num_nodes))) {
    Fail(where + ": aggregate differs from the fold over the network");
  }
}

void CheckSearch(const Oracle& oracle, NodeId src, NodeId dst,
                 const Answer& a, const std::string& where) {
  double want = oracle.ShortestCost(src, dst);
  if (!SameCost(a.cost, want)) {
    Fail(where + ": cost " + std::to_string(a.cost) + ", Dijkstra " +
         std::to_string(want));
  }
  std::string bad = oracle.CheckPath(a.path, src, dst, a.cost);
  if (!bad.empty()) Fail(where + ": " + bad);
}

/// Checks one first-round answer; updates are checked through the
/// exported network instead.
void CheckAnswer(const Oracle& oracle, const Inputs& in, const Op& op,
                 const Answer& a) {
  const std::string where =
      std::string(KindName(op.kind)) + " #" + std::to_string(op.arg);
  if (op.kind == OpKind::kRoute) {
    CheckRoute(oracle, in.routes[op.arg], a, where);
  } else if (op.kind == OpKind::kAggregate) {
    CheckUnit(oracle, in.units[op.arg], a, /*full=*/true, where);
  } else if (IsSearch(op.kind)) {
    CheckSearch(oracle, in.pairs[op.arg].first, in.pairs[op.arg].second, a,
                where);
  }
}

/// Runs rounds of `in.ops` until `seconds` have passed. `begin_round`
/// brings the file to the round's starting state and returns it.
void RunRounds(const Args& args, Inputs* in, CountingAm* am,
               const std::function<ccam::NetworkFile*()>& begin_round,
               Report* report) {
  std::vector<Answer> first(in->ops.size());
  Tally first_tally;
  for (auto& v : report->latency_ns) v.reserve(1 << 16);
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(args.seconds * 1e9);
  do {
    ccam::NetworkFile* file = begin_round();
    am->set_file(file);
    const IoStats d0 = file->DataIoStats();
    const IoStats h0 = file->HierarchyIoStats();
    const auto p0 = file->buffer_pool()->GetCounters();
    const ccam::WalStats w0 = file->wal() ? file->wal()->stats()
                                          : ccam::WalStats{};
    const CountingAm::Counts c0 = am->counts();
    const AllocTotals a0 = CountedAllocs();
    Tally t;
    for (size_t i = 0; i < in->ops.size(); ++i) {
      const Op& op = in->ops[i];
      const int k = static_cast<int>(op.kind);
      const uint64_t request = report->rounds * in->ops.size() + i;
      am->set_request(request);
      const uint64_t allocs_before = CountedAllocs().count;
      const uint64_t reads_before =
          file->DataIoStats().reads + file->HierarchyIoStats().reads;
      const uint64_t t_op = NowNs();
      Answer a;
      {
        SpanScope span(am->tracer(), KindName(op.kind), Layer::kQuery,
                       request);
        a = RunOp(am, *in, op, &t.settled);
      }
      const uint64_t dt = NowNs() - t_op;
      report->latency_ns[k].push_back(dt);
      report->busy_s += dt / 1e9;
      report->kind_allocs[k] += CountedAllocs().count - allocs_before;
      report->kind_reads[k] += file->DataIoStats().reads +
                               file->HierarchyIoStats().reads - reads_before;
      if (IsSearch(op.kind)) {
        ++t.searches;
        report->kind_settled[k] += a.nodes;
      }
      if (report->rounds == 0) {
        first[i] = std::move(a);
      } else if (!(a == first[i])) {
        Fail(std::string(KindName(op.kind)) + " #" + std::to_string(op.arg) +
             ": round " + std::to_string(report->rounds + 1) +
             " answered differently from round 1");
      }
    }
    t.allocs = CountedAllocs() - a0;
    t.ops = in->ops.size();
    t.data = file->DataIoStats() - d0;
    t.overlay = file->HierarchyIoStats() - h0;
    const auto p1 = file->buffer_pool()->GetCounters();
    t.pool_hits = p1.hits - p0.hits;
    t.pool_misses = p1.misses - p0.misses;
    if (file->wal() != nullptr) {
      t.wal_appends = file->wal()->stats().appends - w0.appends;
      t.wal_flushes = file->wal()->stats().flushes - w0.flushes;
    }
    const CountingAm::Counts& c1 = am->counts();
    t.calls = c1.calls - c0.calls;
    t.records = c1.records - c0.records;
    t.updates = c1.updates - c0.updates;
    t.structure_changes = c1.structure_changes - c0.structure_changes;
    if (report->rounds == 0) {
      first_tally = t;
    } else if (!t.SameWork(first_tally)) {
      Fail("round " + std::to_string(report->rounds + 1) +
           " did different work from round 1 on the same inputs");
    }
    report->tally.Add(t);
    ++report->rounds;
  } while (NowNs() - start < budget);

  Oracle oracle(in->net);
  for (size_t i = 0; i < in->ops.size(); ++i) {
    CheckAnswer(oracle, *in, in->ops[i], first[i]);
  }
}

// --- Workloads ---------------------------------------------------------------
// Sub-seeds of the workload seed, one per generated input.
uint64_t SubSeed(uint64_t seed, uint64_t k) {
  return seed * 0x9E3779B97F4A7C15ULL + k;
}

/// route_agg: Fig. 6 random-walk route evaluations (24 nodes) mixed 4:1
/// with route-unit aggregations (16-node walks).
Inputs RouteAggInputs(uint64_t seed) {
  Inputs in;
  in.net = MakeMap();
  in.routes =
      ccam::GenerateRandomWalkRoutes(in.net, 2000, 24, SubSeed(seed, 1));
  in.units = MakeUnits(in.net, 500, 16, SubSeed(seed, 2));
  for (uint32_t i = 0; i < 500; ++i) {
    for (uint32_t k = 0; k < 4; ++k) {
      in.ops.push_back({OpKind::kRoute, 4 * i + k});
    }
    in.ops.push_back({OpKind::kAggregate, i});
  }
  return in;
}

/// path_search: A* and CH over the same pairs at Dijkstra rank 512.
Inputs PathSearchInputs(uint64_t seed) {
  Inputs in;
  in.net = MakeMap();
  in.pairs = MakePairs(in.net, Oracle(in.net), 1500, 512, SubSeed(seed, 3));
  for (uint32_t i = 0; i < in.pairs.size(); ++i) {
    in.ops.push_back({OpKind::kAStar, i});
    in.ops.push_back({OpKind::kCH, i});
  }
  return in;
}

/// update_mix: node delete/reinsert and edge delete/reinsert pairs, each
/// followed by two route evaluations, so reads run between the writes.
Inputs UpdateMixInputs(uint64_t seed) {
  Inputs in;
  in.net = MakeMap();
  ccam::Random rng(SubSeed(seed, 4));
  std::vector<NodeId> ids = in.net.NodeIds();
  for (uint32_t k : rng.Sample(static_cast<uint32_t>(ids.size()), 1600)) {
    in.nodes.push_back(ids[k]);
    in.records.push_back(
        NodeRecord::FromNetworkNode(ids[k], in.net.node(ids[k])));
  }
  std::vector<Network::EdgeRecord> edges = in.net.Edges();
  for (uint32_t k : rng.Sample(static_cast<uint32_t>(edges.size()), 1600)) {
    in.edges.push_back(edges[k]);
  }
  in.routes =
      ccam::GenerateRandomWalkRoutes(in.net, 6400, 24, SubSeed(seed, 5));
  for (uint32_t i = 0; i < 1600; ++i) {
    in.ops.push_back({OpKind::kDeleteNode, i});
    in.ops.push_back({OpKind::kInsertNode, i});
    in.ops.push_back({OpKind::kRoute, 4 * i});
    in.ops.push_back({OpKind::kRoute, 4 * i + 1});
    in.ops.push_back({OpKind::kDeleteEdge, i});
    in.ops.push_back({OpKind::kInsertEdge, i});
    in.ops.push_back({OpKind::kRoute, 4 * i + 2});
    in.ops.push_back({OpKind::kRoute, 4 * i + 3});
  }
  return in;
}

/// After update_mix the file must hold exactly the input network.
void CheckRestored(ccam::NetworkFile* file, const Network& want) {
  Require(file->CheckFileInvariants(), "update_mix: file invariants");
  Require(file->CheckGraphInvariants(), "update_mix: graph invariants");
  auto got = file->ExportNetwork();
  Require(got.status(), "update_mix: ExportNetwork");
  if (got->NodeIds() != want.NodeIds()) {
    Fail("update_mix: exported node set differs from the input network");
  }
  for (NodeId id : want.NodeIds()) {
    const auto& a = got->node(id);
    const auto& b = want.node(id);
    if (a.x != b.x || a.y != b.y || a.payload != b.payload) {
      Fail("update_mix: node " + std::to_string(id) + " data differs");
    }
  }
  auto ge = got->Edges();
  auto we = want.Edges();
  bool same = ge.size() == we.size();
  for (size_t i = 0; same && i < ge.size(); ++i) {
    same = ge[i].from == we[i].from && ge[i].to == we[i].to &&
           ge[i].cost == we[i].cost;
  }
  if (!same) Fail("update_mix: exported edges differ from the input network");
}

void RunSingleClient(const Args& args, uint64_t t0, Tracer* tracer,
                     Report* report) {
  const bool update = args.workload == "update_mix";
  Inputs in = args.workload == "route_agg"     ? RouteAggInputs(args.seed)
              : args.workload == "path_search" ? PathSearchInputs(args.seed)
                                               : UpdateMixInputs(args.seed);
  AccessMethodOptions opts = BaseOptions();
  opts.hierarchy_overlay = args.workload == "path_search";
  opts.durability = update;

  auto created = std::make_unique<Ccam>(opts);
  CountingAm am(created.get(), tracer);
  CreateFile(&am, in.net, report);
  PrintMakeUp(in.net, created.get());

  const std::string image = args.scratch + "/update_mix.img";
  std::unique_ptr<Ccam> current;
  std::function<ccam::NetworkFile*()> begin_round;
  if (update) {
    // Every round reopens the image saved right after Create, so each one
    // starts from the same pages with a cold pool and an empty log.
    Require(created->SaveImage(image), "SaveImage");
    created.reset();
    begin_round = [&current, &opts, &image]() -> ccam::NetworkFile* {
      current.reset();
      current = std::make_unique<Ccam>(opts);
      Require(current->OpenImage(image), "OpenImage");
      return current.get();
    };
  } else {
    begin_round = [&created]() -> ccam::NetworkFile* {
      ResetPools(created.get());
      return created.get();
    };
  }
  report->setup_s = (NowNs() - t0) / 1e9;

  RunRounds(args, &in, &am, begin_round, report);
  ccam::NetworkFile* file = update ? current.get() : created.get();
  if (update) {
    CheckRestored(file, in.net);
    std::error_code ec;
    std::filesystem::remove(image, ec);
  }
  report->stored_kib = StoredKib(file);
  report->crr = ccam::ComputeCrr(in.net, file->PageMap());

  if (args.trace && report->tally.searches > 0) {
    // The program's search counters, read in one more round outside the
    // measured ones: attaching a registry makes every QuerySpan allocate
    // its histogram name, which would change the counted allocations.
    ccam::MetricsRegistry registry;
    Tracer off;
    CountingAm probe(begin_round(), &off);
    probe.set_metrics(&registry);
    uint64_t settled = 0;
    uint64_t searches = 0;
    for (const Op& op : in.ops) {
      RunOp(&probe, in, op, &settled);
      if (IsSearch(op.kind)) ++searches;
    }
    uint64_t counted_settled =
        registry.GetCounter("query.search.settled")->value() +
        registry.GetCounter("query.hierarchy.settled")->value();
    if (counted_settled != settled) {
      Fail("query.*.settled counters disagree with nodes_expanded");
    }
    report->relaxed_per_search =
        Per(registry.GetCounter("query.search.relaxed")->value() +
                registry.GetCounter("query.hierarchy.relaxed")->value(),
            searches);
  }
}

OpKind ServeKind(ccam::serve::ServeOp op) {
  switch (op) {
    case ccam::serve::ServeOp::kRouteEval:
      return OpKind::kRoute;
    case ccam::serve::ServeOp::kAStar:
      return OpKind::kAStar;
    case ccam::serve::ServeOp::kHierarchy:
      return OpKind::kCH;
    case ccam::serve::ServeOp::kAggregate:
      return OpKind::kAggregate;
  }
  return OpKind::kCount;
}

/// serve_mix: the loadgen's zipf-skewed request mix through QueryService,
/// closed loop with kServeWindow requests in flight from one client.
void RunServe(const Args& args, uint64_t t0, Tracer* tracer, Report* report) {
  const Network net = MakeMap();
  AccessMethodOptions opts = BaseOptions();
  opts.buffer_pool_pages = kServePoolPages;
  opts.buffer_pool_shards = kServeWorkers;
  opts.hierarchy_overlay = true;
  Ccam file(opts);
  CountingAm am(&file, tracer);
  CreateFile(&am, net, report);
  PrintMakeUp(net, &file);

  // The loadgen shuffles which pages are hot by its seed, and where the hot
  // spots fall moves the per-request cost; it also draws each request's
  // operation at random, and the A*/CH share moves it more. So each of
  // kServeDistricts seeds (its own hot spot) contributes its first
  // requests of each operation up to a fixed quota, in arrival order, and
  // the districts' requests are interleaved.
  constexpr size_t kQuota[] = {512, 204, 104, 204};  // indexed by ServeOp
  std::vector<std::vector<ccam::serve::ServeRequest>> districts;
  for (int k = 0; k < kServeDistricts; ++k) {
    ccam::serve::LoadgenOptions lo;
    lo.pool_size = 2 * kServeRequestsPerDistrict;
    lo.seed = SubSeed(args.seed, 6 + k);
    size_t taken[4] = {};
    std::vector<ccam::serve::ServeRequest> picked;
    for (auto& r : ccam::serve::BuildRequestPool(&file, lo)) {
      size_t op = static_cast<size_t>(r.op);
      if (taken[op] < kQuota[op]) {
        ++taken[op];
        picked.push_back(std::move(r));
      }
    }
    if (picked.size() != kServeRequestsPerDistrict) {
      Fail("serve_mix: request pool short of its operation quotas");
    }
    districts.push_back(std::move(picked));
  }
  std::vector<ccam::serve::ServeRequest> requests;
  for (size_t i = 0; i < kServeRequestsPerDistrict; ++i) {
    for (auto& d : districts) requests.push_back(std::move(d[i]));
  }
  ccam::serve::QueryServiceOptions so;
  so.num_workers = kServeWorkers;
  so.seed = 42;
  report->setup_s = (NowNs() - t0) / 1e9;

  std::vector<ccam::serve::ServeResponse> first(requests.size());
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(args.seconds * 1e9);
  do {
    ResetPools(&file);
    const IoStats d0 = file.DataIoStats();
    const IoStats h0 = file.HierarchyIoStats();
    ccam::serve::QueryService service(&file, so);
    struct InFlight {
      ccam::serve::ServeTicketPtr ticket;
      size_t index;
      uint64_t submit_us;
    };
    std::deque<InFlight> window;
    AllocTotals allocs;
    const uint64_t w0 = NowNs();
    {
      ServeWindow counting;
      const AllocTotals a0 = CountedAllocs();
      size_t next = 0;
      while (next < requests.size() || !window.empty()) {
        while (next < requests.size() && window.size() < kServeWindow) {
          ccam::serve::ServeRequest request = requests[next];
          uint64_t submit_us = NowNs() / 1000;
          ccam::serve::ServeTicketPtr ticket;
          {
            ProgramCall call;
            ticket = service.Submit(std::move(request));
          }
          window.push_back({std::move(ticket), next++, submit_us});
        }
        InFlight f = std::move(window.front());
        window.pop_front();
        const ccam::serve::ServeResponse* r;
        {
          ProgramCall call;
          r = &f.ticket->Wait();
        }
        const auto& req = requests[f.index];
        const std::string where = std::string("serve ") +
                                  ccam::serve::ServeOpName(req.op) + " #" +
                                  std::to_string(f.index);
        Require(r->status, where);
        const OpKind kind = ServeKind(req.op);
        uint64_t done_us = std::max(r->done_us, f.submit_us);
        report->latency_ns[static_cast<int>(kind)].push_back(
            (done_us - f.submit_us) * 1000);
        report->queue_us.push_back(r->queue_us);
        report->batch_size_sum += r->batch_size;
        if (tracer->enabled()) {
          tracer->Record("Submit", Layer::kServe, f.index, f.submit_us * 1000,
                         done_us * 1000);
        }
        if (report->rounds == 0) {
          first[f.index] = *r;
        } else if (r->cost != first[f.index].cost ||
                   r->num_edges != first[f.index].num_edges ||
                   r->path != first[f.index].path) {
          Fail(where + ": answered differently from round 1");
        }
      }
      allocs = CountedAllocs() - a0;
    }
    report->busy_s += (NowNs() - w0) / 1e9;
    service.Shutdown(/*drain=*/true);

    Tally t;
    t.ops = requests.size();
    t.allocs = allocs;
    t.data = file.DataIoStats() - d0;
    t.overlay = file.HierarchyIoStats() - h0;
    const auto pc = file.buffer_pool()->GetCounters();
    t.pool_hits = pc.hits;
    t.pool_misses = pc.misses;
    if (service.TotalSessionIoStats().reads != t.data.reads ||
        service.TotalSessionHierarchyIoStats().reads != t.overlay.reads) {
      Fail("serve_mix: worker session reads do not sum to the disk reads");
    }
    const auto stats = service.GetStats();
    report->served += stats.completed;
    report->batches += stats.batches;
    report->rejected += stats.rejected;
    report->tally.Add(t);
    ++report->rounds;
  } while (NowNs() - start < budget);

  Oracle oracle(net);
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto& req = requests[i];
    const std::string where = std::string("serve ") +
                              ccam::serve::ServeOpName(req.op) + " #" +
                              std::to_string(i);
    Answer a;
    a.cost = first[i].cost;
    a.edges = first[i].num_edges;
    a.path = first[i].path;
    const OpKind kind = ServeKind(req.op);
    if (kind == OpKind::kRoute) {
      CheckRoute(oracle, req.route, a, where);
    } else if (kind == OpKind::kAggregate) {
      CheckUnit(oracle, req.unit, a, /*full=*/false, where);
    } else {
      CheckSearch(oracle, req.route.nodes.front(), req.route.nodes.back(), a,
                  where);
    }
  }
  report->stored_kib = StoredKib(&file);
  report->crr = ccam::ComputeCrr(net, file.PageMap());
}

// --- Output ------------------------------------------------------------------
struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintJson(const Report& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": 0, \"metrics\": {",
              r.tally.ops);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void PrintWallClock(const Args& args, const Report& r) {
  std::fprintf(stderr,
               "perfbench: workload=%s seed=%" PRIu64 " rounds=%" PRIu64
               " ops=%" PRIu64 " setup_s=%.3f ops_per_s=%.1f\n",
               args.workload.c_str(), args.seed, r.rounds, r.tally.ops,
               r.setup_s, Per(r.tally.ops, r.busy_s));
  for (int k = 0; k < kNumKinds; ++k) {
    const auto& v = r.latency_ns[k];
    if (v.empty()) continue;
    std::fprintf(stderr, "perfbench:   %-12s n=%zu p50_us=%.1f p99_us=%.1f",
                 KindName(static_cast<OpKind>(k)), v.size(),
                 Percentile(v, 50) / 1e3, Percentile(v, 99) / 1e3);
    if (args.workload != "serve_mix") {
      std::fprintf(stderr, " allocs_per_op=%.2f page_reads_per_op=%.3f",
                   Per(r.kind_allocs[k], v.size()),
                   Per(r.kind_reads[k], v.size()));
      if (r.kind_settled[k] > 0) {
        std::fprintf(stderr, " settled_per_op=%.1f",
                     Per(r.kind_settled[k], v.size()));
      }
    }
    std::fprintf(stderr, "\n");
  }
}

std::vector<Metric> EndToEnd(const Report& r) {
  const Tally& t = r.tally;
  const double ops = static_cast<double>(t.ops);
  return {
      {"setup_s", r.setup_s, "s"},
      {"page_reads_per_op", Per(t.data.reads + t.overlay.reads, ops),
       "pages/op"},
      {"page_accesses_per_op",
       Per(t.data.Accesses() + t.overlay.Accesses(), ops), "pages/op"},
      {"allocs_per_op", Per(t.allocs.count, ops), "allocations/op"},
      {"alloc_bytes_per_op", Per(t.allocs.bytes, ops), "bytes/op"},
      {"stored_kib", r.stored_kib, "KiB"},
      {"setup_allocs", static_cast<double>(r.setup_allocs.count),
       "allocations"},
  };
}

std::vector<Metric> PerLayer(const Report& r, const Tracer& tracer) {
  const Tally& t = r.tally;
  const double ops = static_cast<double>(t.ops);
  const double updates = static_cast<double>(t.updates);
  const double searches = static_cast<double>(t.searches);
  return {
      {"partition.crr", r.crr, "ratio"},
      {"partition.create_ms", r.create_ms, "ms"},
      {"core.calls_per_op", Per(t.calls, ops), "calls/op"},
      {"core.records_per_op", Per(t.records, ops), "records/op"},
      {"core.structure_changes_per_update", Per(t.structure_changes, updates),
       "changes/update"},
      {"core.call_us_per_op", Per(tracer.self_ns(Layer::kCore) / 1e3, ops),
       "us/op"},
      {"core.update_us_per_op",
       Per(tracer.self_ns(Layer::kUpdate) / 1e3, updates), "us/update"},
      {"storage.pool_hit_ratio",
       Per(t.pool_hits, t.pool_hits + t.pool_misses), "ratio"},
      {"storage.data_reads_per_op", Per(t.data.reads, ops), "pages/op"},
      {"storage.overlay_reads_per_op", Per(t.overlay.reads, ops), "pages/op"},
      {"storage.data_writes_per_update", Per(t.data.writes, updates),
       "pages/update"},
      {"storage.wal_appends_per_update", Per(t.wal_appends, updates),
       "appends/update"},
      {"storage.wal_flushes_per_update", Per(t.wal_flushes, updates),
       "flushes/update"},
      {"query.settled_per_search", Per(t.settled, searches), "nodes/search"},
      {"query.relaxed_per_search", r.relaxed_per_search, "edges/search"},
      {"query.self_us_per_op", Per(tracer.self_ns(Layer::kQuery) / 1e3, ops),
       "us/op"},
      {"serve.batch_occupancy", Per(r.batch_size_sum, r.served),
       "requests/batch"},
      {"serve.batches_per_request", Per(r.batches, r.served),
       "batches/request"},
      {"serve.queue_us_p50", static_cast<double>(Percentile(r.queue_us, 50)),
       "us"},
      {"serve.queue_us_p99", static_cast<double>(Percentile(r.queue_us, 99)),
       "us"},
      {"serve.rejected", static_cast<double>(r.rejected), "count"},
  };
}

/// The traced run's layer table: self time beside the counts.
void PrintLayers(const Report& r, const Tracer& tracer) {
  const double ops = static_cast<double>(r.tally.ops);
  std::fprintf(stderr, "perfbench: layer self times (%zu spans kept, %" PRIu64
                       " dropped)\n",
               tracer.kept(), tracer.dropped());
  for (Layer l : {Layer::kCreate, Layer::kQuery, Layer::kCore, Layer::kUpdate,
                  Layer::kServe}) {
    if (tracer.count(l) == 0) continue;
    std::fprintf(stderr,
                 "perfbench:   %-16s spans=%-9" PRIu64 " self_ms=%.3f "
                 "self_us_per_op=%.3f\n",
                 LayerName(l), tracer.count(l), tracer.self_ns(l) / 1e6,
                 Per(tracer.self_ns(l) / 1e3, ops));
  }
  for (const Metric& m : EndToEnd(r)) {
    std::fprintf(stderr, "perfbench:   %-22s %.6f %s\n", m.name, m.value,
                 m.unit);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: ccam_perfbench --workload "
               "route_agg|path_search|update_mix|serve_mix --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--scratch DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const uint64_t t0 = NowNs();
  MarkClientThread();
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--scratch") {
      args.scratch = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();
  const bool serve = args.workload == "serve_mix";
  if (!serve && args.workload != "route_agg" &&
      args.workload != "path_search" && args.workload != "update_mix") {
    return Usage();
  }

  Tracer tracer;
  if (args.trace) tracer.Enable(kSpanCapacity);
  Report report;
  if (serve) {
    RunServe(args, t0, &tracer, &report);
  } else {
    RunSingleClient(args, t0, &tracer, &report);
  }
  PrintWallClock(args, report);
  if (args.trace) {
    PrintLayers(report, tracer);
    if (!args.trace_out.empty() && !tracer.WriteJson(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    PrintJson(report, PerLayer(report, tracer));
  } else {
    PrintJson(report, EndToEnd(report));
  }
  return 0;
}
