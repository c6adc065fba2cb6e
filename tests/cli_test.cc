// End-to-end tests of the ccam_cli binary: generate -> create -> stats ->
// find -> route -> window -> replay -> shard, checking exit codes and key
// output fragments, plus the crashsim --json contract (the report file is
// valid JSON even when the sweep itself fails). Binary paths are injected
// by CMake (CCAM_CLI_PATH, CCAM_CRASHSIM_PATH).

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace ccam {
namespace {

#ifndef CCAM_CLI_PATH
#error "CCAM_CLI_PATH must be defined by the build"
#endif
#ifndef CCAM_CRASHSIM_PATH
#error "CCAM_CRASHSIM_PATH must be defined by the build"
#endif

struct CommandResult {
  int exit_code;
  std::string output;
};

CommandResult RunCli(const std::string& args) {
  std::string cmd = std::string(CCAM_CLI_PATH) + " " + args + " 2>&1";
  std::array<char, 512> buf;
  std::string output;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) {
    output += buf.data();
  }
  int status = pclose(pipe);
  return {WEXITSTATUS(status), output};
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = ::testing::TempDir() + "/cli_test.net";
    img_ = ::testing::TempDir() + "/cli_test.img";
    trace_ = ::testing::TempDir() + "/cli_test.trace";
    auto gen = RunCli("generate --out " + net_ + " --rows 8 --cols 8 --seed 3");
    ASSERT_EQ(gen.exit_code, 0) << gen.output;
    auto create = RunCli("create --net " + net_ + " --image " + img_ +
                      " --page-size 512");
    ASSERT_EQ(create.exit_code, 0) << create.output;
  }

  void TearDown() override {
    std::remove(net_.c_str());
    std::remove(img_.c_str());
    std::remove(trace_.c_str());
  }

  std::string Common() const {
    return "--net " + net_ + " --image " + img_ + " --page-size 512";
  }

  std::string net_, img_, trace_;
};

TEST_F(CliTest, GenerateReportsCounts) {
  auto res = RunCli("generate --out " + net_ + " --rows 5 --cols 4 --seed 9");
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_NE(res.output.find("nodes"), std::string::npos);
}

TEST_F(CliTest, CreateReportsCrr) {
  auto res =
      RunCli("create --net " + net_ + " --image " + img_ + " --page-size 512");
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_NE(res.output.find("CCAM-S"), std::string::npos);
  EXPECT_NE(res.output.find("CRR"), std::string::npos);
}

TEST_F(CliTest, CreateIncrementalAndPartitionerFlags) {
  auto res = RunCli("create --net " + net_ + " --image " + img_ +
                 " --page-size 512 --mode incremental --partitioner fm");
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_NE(res.output.find("CCAM-D"), std::string::npos);
}

TEST_F(CliTest, StatsShowsFileReport) {
  auto res = RunCli("stats " + Common());
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("CRR"), std::string::npos);
  EXPECT_NE(res.output.find("gamma"), std::string::npos);
}

TEST_F(CliTest, FindPrintsAdjacency) {
  auto res = RunCli("find " + Common() + " --id 5");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("node 5"), std::string::npos);
  EXPECT_NE(res.output.find("successors:"), std::string::npos);
}

TEST_F(CliTest, FindMissingNodeFails) {
  auto res = RunCli("find " + Common() + " --id 99999");
  EXPECT_NE(res.exit_code, 0);
  EXPECT_NE(res.output.find("NotFound"), std::string::npos);
}

TEST_F(CliTest, RoutePrintsPath) {
  auto res = RunCli("route " + Common() + " --from 0 --to 10");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("path:"), std::string::npos);
}

TEST_F(CliTest, WindowListsNodes) {
  auto res =
      RunCli("window " + Common() + " --xmin 0 --ymin 0 --xmax 900 --ymax 900");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("nodes in window"), std::string::npos);
}

TEST_F(CliTest, ReplayRunsTrace) {
  FILE* f = fopen(trace_.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("find 1\nget-successors 2\ninsert-node 500 5 5\ndelete-node 500\n",
        f);
  fclose(f);
  auto res = RunCli("replay " + Common() + " --trace " + trace_ +
                 " --policy second-order");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("4 operations"), std::string::npos);
}

TEST_F(CliTest, ServeRunsLoadAndConserves) {
  auto res = RunCli("serve " + Common() +
                    " --qps 500 --duration-ms 300 --workers 4");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("conserved: yes"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("qps"), std::string::npos);
}

TEST_F(CliTest, ServeUnbatchedStillConserves) {
  auto res = RunCli("serve " + Common() +
                    " --qps 300 --duration-ms 200 --workers 2 --no-batching");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("unbatched"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("conserved: yes"), std::string::npos)
      << res.output;
}

TEST_F(CliTest, ServeRejectsMoreWorkersThanShardFrames) {
  // The default 8-page pool is one 8-frame shard: a ninth worker could
  // find every frame pinned.
  auto res = RunCli("serve " + Common() + " --workers 9");
  EXPECT_EQ(res.exit_code, 2) << res.output;
  EXPECT_NE(res.output.find("smallest buffer-pool shard"), std::string::npos)
      << res.output;
}

TEST_F(CliTest, UsageOnBadCommand) {
  auto res = RunCli("frobnicate");
  EXPECT_EQ(res.exit_code, 2);
  EXPECT_NE(res.output.find("usage"), std::string::npos);
}

TEST_F(CliTest, MissingRequiredFlagFails) {
  auto res = RunCli("create --net " + net_);
  EXPECT_EQ(res.exit_code, 2);
  EXPECT_NE(res.output.find("--image"), std::string::npos);
}

TEST_F(CliTest, UnknownSubcommandNamesItselfBeforeFlagParsing) {
  auto res = RunCli("sttas --net " + net_);
  EXPECT_EQ(res.exit_code, 2);
  EXPECT_NE(res.output.find("unknown subcommand 'sttas'"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("usage"), std::string::npos);
}

TEST_F(CliTest, NonNumericFlagValueFailsTyped) {
  auto res = RunCli("find " + Common() + " --id twelve");
  EXPECT_EQ(res.exit_code, 2);
  EXPECT_NE(res.output.find("is not an integer"), std::string::npos)
      << res.output;
}

TEST_F(CliTest, GenerateRejectsDegenerateGrid) {
  auto res = RunCli("generate --out " + net_ + " --rows 1 --cols 8 --seed 3");
  EXPECT_EQ(res.exit_code, 2);
}

TEST_F(CliTest, MissingNetworkFileFailsNonzero) {
  auto res = RunCli("stats --net /nonexistent/no.net --image " + img_ +
                    " --page-size 512");
  EXPECT_NE(res.exit_code, 0);
  EXPECT_NE(res.output.find("/nonexistent/no.net"), std::string::npos)
      << res.output;
}

TEST_F(CliTest, ShardMatchesUnshardedAndReportsLayout) {
  auto res = RunCli("shard --net " + net_ +
                    " --page-size 512 --shards 2 --routes 24");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("2 shards"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("0 mismatches"), std::string::npos) << res.output;
}

TEST_F(CliTest, ShardRejectsNonPowerOfTwo) {
  auto res = RunCli("shard --net " + net_ + " --shards 3");
  EXPECT_EQ(res.exit_code, 2);
  EXPECT_NE(res.output.find("power of two"), std::string::npos) << res.output;
}

// --- crashsim --json contract --------------------------------------------

CommandResult RunCrashsim(const std::string& args) {
  std::string cmd = std::string(CCAM_CRASHSIM_PATH) + " " + args + " 2>&1";
  std::array<char, 512> buf;
  std::string output;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) {
    output += buf.data();
  }
  int status = pclose(pipe);
  return {WEXITSTATUS(status), output};
}

bool IsValidJsonFile(const std::string& path) {
  std::string cmd = "python3 -m json.tool " + path + " > /dev/null 2>&1";
  return system(cmd.c_str()) == 0;
}

TEST_F(CliTest, CrashsimJsonReportIsValidJson) {
  std::string json = ::testing::TempDir() + "/crashsim_ok.json";
  auto res = RunCrashsim("--ops=40 --points=3 --json=" + json + " --image=" +
                         ::testing::TempDir() + "/crashsim_ok.img");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_TRUE(IsValidJsonFile(json)) << "unparseable report: " << json;
  std::remove(json.c_str());
}

TEST_F(CliTest, CrashsimJsonIsValidEvenWhenTheSweepFails) {
  // The sweep cannot even start (unwritable image path); the --json
  // consumer must still get a parseable document, not a missing or
  // truncated file.
  std::string json = ::testing::TempDir() + "/crashsim_err.json";
  auto res = RunCrashsim("--ops=20 --points=2 --json=" + json +
                         " --image=/nonexistent_dir/x.img");
  EXPECT_NE(res.exit_code, 0);
  EXPECT_TRUE(IsValidJsonFile(json)) << "unparseable error report: " << json;
  std::remove(json.c_str());
}

}  // namespace
}  // namespace ccam
