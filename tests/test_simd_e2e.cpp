// End-to-end test for the cts_simd shard orchestrator: a 2-shard run of a
// real simulation bench must produce CLR/BOP point estimates and
// replication CIs bit-identical to a single-process run at the same master
// seed and scale (checked in-process on the parsed shard files, not by
// eye), and its merged metrics report must pass `cts_simd diff` against
// the single-process report.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "cts/obs/json.hpp"
#include "cts/sim/shard.hpp"

namespace obs = cts::obs;
namespace sim = cts::sim;

namespace {

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

/// Runs `command` through the shell and returns the child's exit code.
int shell(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

#if defined(CTS_TOOLS_BIN_DIR) && defined(CTS_BENCH_BIN_DIR)

const char* kScale = "REPRO_REPS=3 REPRO_FRAMES=500 ";

std::string simd() { return std::string(CTS_TOOLS_BIN_DIR) + "/cts_simd"; }
std::string bench() {
  return std::string(CTS_BENCH_BIN_DIR) + "/bench_fig9_sim_markov";
}

void expect_results_bit_identical(const sim::MergedShards& a,
                                  const sim::MergedShards& b) {
  ASSERT_EQ(a.experiments.size(), b.experiments.size());
  for (std::size_t e = 0; e < a.experiments.size(); ++e) {
    SCOPED_TRACE(a.experiments[e].label);
    EXPECT_EQ(a.experiments[e].label, b.experiments[e].label);
    const sim::ReplicationResult& ra = a.experiments[e].result;
    const sim::ReplicationResult& rb = b.experiments[e].result;
    EXPECT_EQ(ra.total_arrived_cells, rb.total_arrived_cells);
    EXPECT_EQ(ra.total_frames, rb.total_frames);
    ASSERT_EQ(ra.clr.size(), rb.clr.size());
    for (std::size_t i = 0; i < ra.clr.size(); ++i) {
      EXPECT_EQ(ra.clr[i].pooled_clr, rb.clr[i].pooled_clr);
      EXPECT_EQ(ra.clr[i].clr.mean, rb.clr[i].clr.mean);
      EXPECT_EQ(ra.clr[i].clr.half_width, rb.clr[i].clr.half_width);
    }
    ASSERT_EQ(ra.bop.size(), rb.bop.size());
    for (std::size_t i = 0; i < ra.bop.size(); ++i) {
      EXPECT_EQ(ra.bop[i].pooled_bop, rb.bop[i].pooled_bop);
      EXPECT_EQ(ra.bop[i].bop.mean, rb.bop[i].bop.mean);
      EXPECT_EQ(ra.bop[i].bop.half_width, rb.bop[i].bop.half_width);
    }
  }
}

TEST(SimdE2E, TwoShardRunIsBitIdenticalToSingleProcess) {
  const std::string dir = ::testing::TempDir() + "/cts_simd_e2e";
  ASSERT_EQ(shell("mkdir -p '" + dir + "'"), 0);

  // Single-process reference: --shard-out alone records the degenerate 0/1
  // shard file, which merges to the plain run_replicated result.
  const std::string single_shard = dir + "/single_shard.json";
  const std::string single_metrics = dir + "/single_metrics.json";
  ASSERT_EQ(shell(kScale + ("'" + bench() + "' --quiet --shard-out='" +
                            single_shard + "' --metrics='" + single_metrics +
                            "' > '" + dir + "/single.log' 2>&1")),
            0);

  // 2-shard orchestrated run of the same binary at the same scale.
  const std::string merged_metrics = dir + "/merged_metrics.json";
  ASSERT_EQ(shell(kScale + ("'" + simd() + "' run '" + bench() +
                            "' --shards=2 --keep-shards --out-dir='" + dir +
                            "/shards' --metrics='" + merged_metrics +
                            "' --quiet > '" + dir + "/simd.log' 2>&1")),
            0);

  // The automated bit-identity check: merge both shard sets in-process and
  // compare every estimate with EXPECT_EQ (no tolerances).
  const sim::MergedShards single =
      sim::merge_shard_files({sim::read_shard_file(single_shard)});
  const sim::MergedShards sharded = sim::merge_shard_files(
      {sim::read_shard_file(dir + "/shards/shard_0.json"),
       sim::read_shard_file(dir + "/shards/shard_1.json")});
  EXPECT_EQ(single.shard_count, 1u);
  EXPECT_EQ(sharded.shard_count, 2u);
  // 3 replications across 2 shards exercise an uneven 1+2 split.
  EXPECT_GE(single.experiments.size(), 1u);
  expect_results_bit_identical(single, sharded);

  // The merged metrics report matches the single-process one under the
  // documented diff rules (exit 0).
  EXPECT_EQ(shell("'" + simd() + "' diff '" + single_metrics + "' '" +
                  merged_metrics + "' --quiet"),
            0);
}

TEST(SimdE2E, DiffDetectsDivergingReports) {
  const std::string dir = ::testing::TempDir();
  const std::string a = dir + "/simd_diff_a.json";
  const std::string b = dir + "/simd_diff_b.json";
  const std::string base =
      R"({"config":{"run_id":"x"},"metrics":{"counters":{"sim.replications":)";
  write_file(a, base + R"(3},"sums":{},"gauges":{}}})");
  write_file(b, base + R"(4},"sums":{},"gauges":{}}})");
  EXPECT_EQ(shell("'" + simd() + "' diff '" + a + "' '" + a + "' --quiet"), 0);
  EXPECT_EQ(shell("'" + simd() + "' diff '" + a + "' '" + b + "' --quiet"), 1);
  EXPECT_EQ(shell("'" + simd() + "' diff '" + a + "' /nonexistent.json "
                  "2>/dev/null"),
            2);
}

TEST(SimdE2E, BenchRejectsMalformedShardFlag) {
  EXPECT_EQ(shell("'" + bench() + "' --shard=junk --quiet > /dev/null 2>&1"),
            2);
  EXPECT_EQ(shell("'" + bench() + "' --shard=3/2 --quiet > /dev/null 2>&1"),
            2);
}

TEST(SimdE2E, UsageErrorsExitTwo) {
  EXPECT_EQ(shell("'" + simd() + "' > /dev/null 2>&1"), 2);
  EXPECT_EQ(shell("'" + simd() + "' frobnicate > /dev/null 2>&1"), 2);
  EXPECT_EQ(shell("'" + simd() + "' run > /dev/null 2>&1"), 2);
  EXPECT_EQ(shell("'" + simd() + "' --help > /dev/null"), 0);
}

#endif  // CTS_TOOLS_BIN_DIR && CTS_BENCH_BIN_DIR

}  // namespace
