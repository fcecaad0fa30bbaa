// Regression tests for the cts_simd robustness fixes.  Each test encodes
// the pre-fix failure mode and fails against the old behaviour:
//
//   * `diff` against an unreadable path exits 2 naming the path and the
//     errno text (was: silent empty read, then "json parse error");
//   * a report missing a whole metrics section is a reported difference
//     (exit 1; was: JsonValue::at threw and the comparison exited 2);
//   * `run --timeout=` kills a wedged worker and reports it, naming the
//     terminating signal for signalled workers (was: waitpid blocked
//     forever);
//   * `run --out-dir=a/b/c` creates the whole directory chain up front
//     (was: a single-level ::mkdir, and workers died writing shards).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include <sys/stat.h>
#include <sys/wait.h>

#include "cts/util/file.hpp"

namespace cu = cts::util;

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

#if defined(CTS_TOOLS_BIN_DIR)

std::string simd() { return std::string(CTS_TOOLS_BIN_DIR) + "/cts_simd"; }

std::string report_with(const std::string& metrics_body) {
  return R"({"config":{"run_id":"x"},"metrics":{)" + metrics_body + "}}";
}

TEST(SimdFixes, DiffNamesUnreadablePathAndErrno) {
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "/fix_diff_good.json";
  const std::string missing = dir + "/fix_diff_missing.json";
  write_file(good, report_with(
      R"("counters":{},"sums":{},"gauges":{})"));
  const std::string err = dir + "/fix_diff_err.txt";
  EXPECT_EQ(shell("'" + simd() + "' diff '" + good + "' '" + missing +
                  "' 2> '" + err + "'"),
            2);
  const std::string text = cu::read_text_file(err);
  EXPECT_NE(text.find(missing), std::string::npos) << text;
  EXPECT_NE(text.find("No such file"), std::string::npos) << text;
}

TEST(SimdFixes, MissingMetricsSectionIsADifferenceNotAParseError) {
  const std::string dir = ::testing::TempDir();
  const std::string full = dir + "/fix_section_full.json";
  const std::string bare = dir + "/fix_section_bare.json";
  write_file(full, report_with(
      R"("counters":{"sim.replications":3},"sums":{},"gauges":{})"));
  // No "counters" (or any other) section at all: pre-fix, at("counters")
  // threw and the comparison died with exit 2.
  write_file(bare, R"({"config":{"run_id":"x"},"metrics":{}})");
  const std::string out = dir + "/fix_section_out.txt";
  EXPECT_EQ(shell("'" + simd() + "' diff '" + full + "' '" + bare + "' > '" +
                  out + "' 2>&1"),
            1);
  const std::string text = cu::read_text_file(out);
  EXPECT_NE(text.find("sim.replications"), std::string::npos) << text;
  EXPECT_NE(text.find("only one report"), std::string::npos) << text;
}

TEST(SimdFixes, TimeoutKillsAndReportsAWedgedWorker) {
  const std::string dir = ::testing::TempDir() + "/simd_fix_timeout";
  ASSERT_EQ(shell("mkdir -p '" + dir + "'"), 0);
  // A "bench binary" that wedges: ignores its arguments and sleeps far
  // beyond the deadline.  Pre-fix, cts_simd sat in waitpid forever.
  const std::string fake = dir + "/fake_bench";
  write_file(fake, "#!/bin/sh\nsleep 600\n");
  ASSERT_EQ(shell("chmod +x '" + fake + "'"), 0);
  const std::string err = dir + "/err.txt";
  EXPECT_EQ(shell("'" + simd() + "' run '" + fake +
                  "' --shards=2 --timeout=0.5 --out-dir='" + dir +
                  "/out' --metrics='" + dir + "/m.json' --quiet 2> '" + err +
                  "'"),
            1);
  const std::string text = cu::read_text_file(err);
  EXPECT_NE(text.find("timed out"), std::string::npos) << text;
}

TEST(SimdFixes, SignalledWorkerIsReportedByName) {
  const std::string dir = ::testing::TempDir() + "/simd_fix_signal";
  ASSERT_EQ(shell("mkdir -p '" + dir + "'"), 0);
  const std::string fake = dir + "/fake_bench";
  write_file(fake, "#!/bin/sh\nkill -TERM $$\n");
  ASSERT_EQ(shell("chmod +x '" + fake + "'"), 0);
  const std::string err = dir + "/err.txt";
  EXPECT_EQ(shell("'" + simd() + "' run '" + fake +
                  "' --shards=1 --out-dir='" + dir + "/out' --metrics='" +
                  dir + "/m.json' --quiet 2> '" + err + "'"),
            1);
  const std::string text = cu::read_text_file(err);
  EXPECT_NE(text.find("signal"), std::string::npos) << text;
  EXPECT_NE(text.find("Terminated"), std::string::npos) << text;
}

TEST(SimdFixes, NestedOutDirIsCreatedLikeMkdirP) {
  const std::string dir = ::testing::TempDir() + "/simd_fix_nested";
  ASSERT_EQ(shell("mkdir -p '" + dir + "'"), 0);
  // A fake bench that honours --shard-out well enough for the merge to be
  // attempted: the run must get past out-dir creation and actually spawn
  // workers (pre-fix it failed with a bare ::mkdir and a later ENOENT).
  const std::string fake = dir + "/fake_bench";
  write_file(fake,
             "#!/bin/sh\nfor a in \"$@\"; do case $a in --shard-out=*)\n"
             "echo x > \"${a#--shard-out=}\";; esac; done\n");
  ASSERT_EQ(shell("chmod +x '" + fake + "'"), 0);
  const std::string nested = dir + "/a/b/c";
  // The run still fails overall (the fake shard file does not parse in the
  // merge), but the nested chain must exist and hold the worker output —
  // the pre-fix code never created a/b and failed before any shard
  // appeared.
  EXPECT_NE(shell("'" + simd() + "' run '" + fake +
                  "' --shards=1 --out-dir='" + nested + "' --metrics='" +
                  dir + "/m.json' --quiet > /dev/null 2>&1"),
            0);
  struct stat st{};
  ASSERT_EQ(::stat(nested.c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  EXPECT_EQ(::stat((nested + "/shard_0.json").c_str(), &st), 0);
}

TEST(SimdFixes, UnwritableOutDirFailsUpFrontNamingThePath) {
  const std::string dir = ::testing::TempDir() + "/simd_fix_unwritable";
  ASSERT_EQ(shell("mkdir -p '" + dir + "'"), 0);
  const std::string file_in_the_way = dir + "/blocked";
  write_file(file_in_the_way, "not a directory");
  const std::string err = dir + "/err.txt";
  EXPECT_EQ(shell("'" + simd() + "' run /bin/true --shards=1 --out-dir='" +
                  file_in_the_way + "/out' --metrics='" + dir +
                  "/m.json' --quiet 2> '" + err + "'"),
            2);
  EXPECT_NE(cu::read_text_file(err).find(file_in_the_way),
            std::string::npos);
}

#endif  // CTS_TOOLS_BIN_DIR

}  // namespace
