// End-to-end bench-binary tests: every bench binary must honour --help
// with exit 0, and the analytic benches must attribute their inner loops
// (rate-function evaluations, curve assembly) to named spans in the
// --trace timeline, not just the "bench.main" root.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "cts/obs/json.hpp"

namespace obs = cts::obs;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs `command` through the shell and returns the child's exit code.
int shell(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(BenchBinaries, AnalyticBenchTraceCarriesNamedSpans) {
  const std::string out = ::testing::TempDir() + "/fig5_trace.json";
  const std::string bench = std::string(CTS_BENCH_BIN_DIR) + "/bench_fig5_bop";
  const std::string cmd =
      "'" + bench + "' --quiet --trace='" + out + "' > /dev/null";
  ASSERT_EQ(shell(cmd), 0) << cmd;
  const std::string text = read_file(out);
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(text, &error)) << error;
  const obs::JsonValue doc = obs::json_parse(text);
  bool saw_rate_fn = false;
  for (const obs::JsonValue& event : doc.at("traceEvents").items) {
    if (event.at("ph").as_string() != "X") continue;
    if (event.at("name").as_string().rfind("rate_fn", 0) == 0) {
      saw_rate_fn = true;
    }
  }
  EXPECT_TRUE(saw_rate_fn);
}

TEST(BenchBinaries, HelpPrintsFlagListAndExitsZero) {
  const std::string out = ::testing::TempDir() + "/bench_help.txt";
  const std::string bench = std::string(CTS_BENCH_BIN_DIR) + "/bench_table1";
  ASSERT_EQ(shell("'" + bench + "' --help > '" + out + "'"), 0);
  const std::string text = read_file(out);
  EXPECT_NE(text.find("--metrics"), std::string::npos);
  EXPECT_NE(text.find("--profile"), std::string::npos);
  EXPECT_NE(text.find("--trace"), std::string::npos);
  EXPECT_NE(text.find("--help"), std::string::npos);
}

}  // namespace
