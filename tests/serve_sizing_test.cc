// Frame-pin sizing of the query service: each worker holds at most one
// pinned data-pool frame at a time, so a pool whose smallest shard has at
// least as many frames as there are workers never answers a healthy
// request with NoSpace. The shard count is forced here, so the multi-shard
// path runs on every host — not only where hardware_concurrency() happens
// to split the pool.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/ccam.h"
#include "src/graph/generator.h"
#include "src/serve/loadgen.h"
#include "src/serve/query_service.h"

namespace ccam {
namespace {

using serve::QueryService;
using serve::QueryServiceOptions;
using serve::ServeTicketPtr;

std::unique_ptr<Ccam> MakeFile(size_t pool_pages, size_t pool_shards) {
  RoadMapOptions gen;
  gen.rows = 24;
  gen.cols = 24;
  gen.nodes_to_remove = 6;
  gen.seed = 2024;
  AccessMethodOptions options;
  options.page_size = 512;
  options.buffer_pool_pages = pool_pages;
  options.buffer_pool_shards = pool_shards;
  auto am = std::make_unique<Ccam>(options, CcamCreateMode::kStatic);
  EXPECT_TRUE(am->Create(GenerateRoadMap(gen)).ok());
  return am;
}

TEST(ServeSizingTest, DefaultWorkersNeverOutnumberShardFrames) {
  {
    // One worker per shard while the shards are big enough.
    auto file = MakeFile(/*pool_pages=*/32, /*pool_shards=*/4);
    QueryService service(file.get(), QueryServiceOptions{});
    EXPECT_EQ(service.num_workers(), 4);
  }
  {
    // 16 shards of 8 frames: one worker per shard would put 16 pinning
    // threads on 8-frame shards, so the default stops at 8.
    auto file = MakeFile(/*pool_pages=*/128, /*pool_shards=*/16);
    QueryService service(file.get(), QueryServiceOptions{});
    EXPECT_EQ(service.num_workers(), 8);
  }
}

TEST(ServeSizingTest, WorkersFillingEveryShardFrameServeEveryRequest) {
  // 16 frames in 2 shards of 8, with 8 batching workers: every shard can
  // have all 8 workers pinning in it at once. At one pin per worker that
  // still leaves a frame to evict; a second pin per worker would not.
  auto file = MakeFile(/*pool_pages=*/16, /*pool_shards=*/2);
  ASSERT_EQ(file->buffer_pool()->MinShardCapacity(), 8u);

  serve::LoadgenOptions gen;
  gen.tenants = 6;
  gen.pool_size = 600;
  gen.zipf_theta = 0.8;
  gen.seed = 11;
  const auto pool = serve::BuildRequestPool(file.get(), gen);
  ASSERT_FALSE(pool.empty());

  const IoStats disk_before = file->DataIoStats();
  QueryServiceOptions options;
  options.num_workers = 8;
  options.max_queue_depth = 100000;  // nothing may be shed in this test
  options.max_tenant_depth = 100000;
  QueryService service(file.get(), options);
  std::vector<ServeTicketPtr> tickets;
  for (int round = 0; round < 4; ++round) {
    for (const auto& request : pool) tickets.push_back(service.Submit(request));
  }
  size_t failed = 0;
  std::string first_failure;
  for (const ServeTicketPtr& ticket : tickets) {
    const Status& status = ticket->Wait().status;
    if (!status.ok() && failed++ == 0) first_failure = status.ToString();
  }
  EXPECT_EQ(failed, 0u) << first_failure;

  service.Shutdown(/*drain=*/true);
  EXPECT_EQ(service.GetStats().completed, tickets.size());
  EXPECT_GT(service.GetStats().batched_requests, 0u);
  EXPECT_EQ(service.TotalSessionIoStats().reads,
            file->DataIoStats().reads - disk_before.reads);
}

}  // namespace
}  // namespace ccam
