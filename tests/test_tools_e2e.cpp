// End-to-end harness tests: cts_benchd must produce a cts.bench.v1 document
// that carries median/MAD/CI, peak RSS, CPU time and a per-phase self-time
// table for every smoke bench; cts_benchcmp must exit 0 on an identical
// pair, 1 on a perturbed candidate, and validate files against the strict
// RFC 8259 parser; and every bench binary must honour --help with exit 0.

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

std::string benchd() { return std::string(CTS_TOOLS_BIN_DIR) + "/cts_benchd"; }
std::string benchcmp() {
  return std::string(CTS_TOOLS_BIN_DIR) + "/cts_benchcmp";
}

/// A minimal cts.bench.v1 document for cts_benchcmp tests.
std::string mini_bench_doc(double wall_median) {
  std::ostringstream os;
  os << R"({"schema":"cts.bench.v1","benches":{"fig9_sim_markov":{"metrics":{)"
     << R"("wall_s":{"median":)" << wall_median << R"(,"mad":0.01}}}}})";
  return os.str();
}

TEST(CtsBenchd, SmokeSuiteProducesValidBenchDocument) {
  const std::string out = ::testing::TempDir() + "/BENCH_e2e.json";
  const std::string cmd = "'" + benchd() +
                          "' --suite=smoke --repeats=2 --warmup=0 --reps=1 "
                          "--frames=400 --quiet --bench-dir='" +
                          CTS_BENCH_BIN_DIR + "' --out='" + out + "'";
  ASSERT_EQ(shell(cmd), 0) << cmd;

  const std::string text = read_file(out);
  ASSERT_FALSE(text.empty());
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(text, &error)) << error;

  const obs::JsonValue doc = obs::json_parse(text);
  EXPECT_EQ(doc.at("schema").as_string(), "cts.bench.v1");
  EXPECT_DOUBLE_EQ(doc.at("repeats").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("scale").at("repro_frames").as_number(), 400.0);
  EXPECT_GT(doc.at("host").at("hardware_concurrency").as_number(), 0.0);

  const obs::JsonValue& benches = doc.at("benches");
  ASSERT_GE(benches.size(), 3u);
  for (const auto& [id, b] : benches.members) {
    SCOPED_TRACE(id);
    EXPECT_DOUBLE_EQ(b.at("runs").as_number(), 2.0);
    const obs::JsonValue& metrics = b.at("metrics");
    for (const char* name : {"wall_s", "user_s", "sys_s", "max_rss_kb"}) {
      const obs::JsonValue& m = metrics.at(name);
      EXPECT_DOUBLE_EQ(m.at("n").as_number(), 2.0);
      EXPECT_GE(m.at("median").as_number(), 0.0);
      EXPECT_GE(m.at("mad").as_number(), 0.0);
      EXPECT_LE(m.at("ci95_lo").as_number(), m.at("ci95_hi").as_number());
      EXPECT_EQ(m.at("samples").size(), 2u);
    }
    EXPECT_GT(metrics.at("wall_s").at("median").as_number(), 0.0);
    EXPECT_GT(metrics.at("max_rss_kb").at("median").as_number(), 0.0);
    // Hardware counters either aggregated from perf_event or reported
    // unavailable with the reason the syscall failed.
    const obs::JsonValue& hw = b.at("hw");
    if (hw.at("available").as_bool()) {
      EXPECT_EQ(hw.at("backend").as_string(), "perf_event");
      EXPECT_NE(hw.at("counters").find("cycles"), nullptr);
      EXPECT_NE(hw.at("counters").find("instructions"), nullptr);
    } else {
      EXPECT_NE(hw.at("reason").as_string().find("perf_event_open"),
                std::string::npos);
    }
    // Every bench has at least the "bench" root phase.
    const obs::JsonValue& phases = b.at("phases");
    ASSERT_GE(phases.size(), 1u);
    double share_sum = 0.0;
    for (const obs::JsonValue& phase : phases.items) {
      EXPECT_FALSE(phase.at("phase").as_string().empty());
      EXPECT_GE(phase.at("self_us_median").as_number(), 0.0);
      share_sum += phase.at("self_share").as_number();
    }
    EXPECT_NEAR(share_sum, 1.0, 1e-6);
  }

  // An identical pair never regresses.
  EXPECT_EQ(shell("'" + benchcmp() + "' '" + out + "' '" + out + "' --quiet"),
            0);
  // The emitted document passes --validate.
  EXPECT_EQ(shell("'" + benchcmp() + "' --validate='" + out + "' --quiet"), 0);
}

TEST(CtsBenchcmp, FlagsPerturbedCandidateAsRegression) {
  const std::string base = ::testing::TempDir() + "/bench_base.json";
  const std::string worse = ::testing::TempDir() + "/bench_worse.json";
  write_file(base, mini_bench_doc(1.0));
  write_file(worse, mini_bench_doc(1.5));  // +50%, far beyond 3 x MAD and 5%
  EXPECT_EQ(shell("'" + benchcmp() + "' '" + base + "' '" + base +
                  "' --quiet"),
            0);
  EXPECT_EQ(shell("'" + benchcmp() + "' '" + base + "' '" + worse +
                  "' --quiet"),
            1);
  // The improvement direction never fails.
  EXPECT_EQ(shell("'" + benchcmp() + "' '" + worse + "' '" + base +
                  "' --quiet"),
            0);
}

TEST(CtsBenchcmp, ValidateRejectsMalformedJson) {
  const std::string good = ::testing::TempDir() + "/validate_good.json";
  const std::string bad = ::testing::TempDir() + "/validate_bad.json";
  write_file(good, mini_bench_doc(1.0));
  write_file(bad, "{\"schema\":\"cts.bench.v1\",}");
  EXPECT_EQ(shell("'" + benchcmp() + "' --validate='" + good + "' --quiet"),
            0);
  EXPECT_EQ(
      shell("'" + benchcmp() + "' --validate='" + bad + "' --quiet 2>/dev/null"),
      2);
  EXPECT_EQ(shell("'" + benchcmp() + "' --validate='/no/such/file.json' "
                  "--quiet 2>/dev/null"),
            2);
}

TEST(CtsBenchcmp, UsageErrorsExitTwo) {
  EXPECT_EQ(shell("'" + benchcmp() + "' 2>/dev/null >/dev/null"), 2);
  EXPECT_EQ(shell("'" + benchcmp() + "' --help >/dev/null"), 0);
}

TEST(CtsBenchcmp, ValidateRejectsMissingAndUnknownSchema) {
  // Valid JSON is not enough: a schema-less or foreign document must be
  // rejected so a stray file can never pass as a perf baseline.
  const std::string no_schema = ::testing::TempDir() + "/validate_noschema.json";
  const std::string wrong = ::testing::TempDir() + "/validate_wrong.json";
  write_file(no_schema, R"({"benches":{}})");
  write_file(wrong, R"({"schema":"cts.perf.v1","benches":{}})");
  EXPECT_EQ(shell("'" + benchcmp() + "' --validate='" + no_schema +
                  "' --quiet 2>/dev/null"),
            2);
  EXPECT_EQ(shell("'" + benchcmp() + "' --validate='" + wrong +
                  "' --quiet 2>/dev/null"),
            2);
}

TEST(CtsBenchd, CompareModeGatesInOneInvocation) {
  // One-shot run-and-gate: the exit code must match what a separate
  // cts_benchcmp invocation would produce against the same baseline.
  const std::string dir = ::testing::TempDir();
  const std::string fast = dir + "/compare_fast_base.json";   // unbeatable
  const std::string slow = dir + "/compare_slow_base.json";   // unloseable
  const auto fig5_doc = [](double wall_median) {
    std::ostringstream os;
    os << R"({"schema":"cts.bench.v1","benches":{"fig5_bop":{"metrics":{)"
       << R"("wall_s":{"median":)" << wall_median << R"(,"mad":1e-9}}}}})";
    return os.str();
  };
  write_file(fast, fig5_doc(1e-9));   // any real run regresses vs this
  write_file(slow, fig5_doc(1000.0));  // any real run improves vs this
  const std::string run = "'" + benchd() +
                          "' --suite=analytic --filter=fig5 --repeats=2 "
                          "--warmup=0 --quiet --bench-dir='" +
                          CTS_BENCH_BIN_DIR + "' --out='" + dir +
                          "/compare_out.json'";
  EXPECT_EQ(shell(run + " --compare='" + slow + "' >/dev/null 2>/dev/null"), 0);
  EXPECT_EQ(shell(run + " --compare='" + fast + "' >/dev/null 2>/dev/null"), 1);
  // A missing baseline is a usage error, not a regression.
  EXPECT_EQ(shell(run + " --compare='/no/such/BENCH.json' "
                        ">/dev/null 2>/dev/null"),
            2);
}

TEST(CtsBenchd, JsonLinesStreamsOneObjectPerRun) {
  const std::string dir = ::testing::TempDir();
  const std::string jsonl = dir + "/runs.jsonl";
  const std::string cmd = "'" + benchd() +
                          "' --suite=analytic --filter=fig5 --repeats=2 "
                          "--warmup=1 --quiet --bench-dir='" +
                          CTS_BENCH_BIN_DIR + "' --out='" + dir +
                          "/jsonl_out.json' --json-lines='" + jsonl + "'";
  ASSERT_EQ(shell(cmd), 0) << cmd;

  std::ifstream in(jsonl);
  std::string line;
  int lines = 0;
  int warmups = 0;
  while (std::getline(in, line)) {
    SCOPED_TRACE(line);
    ASSERT_FALSE(line.empty());
    std::string error;
    // Each line must be a complete RFC 8259 document on its own.
    ASSERT_TRUE(obs::json_parse_check(line, &error)) << error;
    const obs::JsonValue run = obs::json_parse(line);
    EXPECT_EQ(run.at("schema").as_string(), "cts.benchrun.v1");
    EXPECT_EQ(run.at("bench").as_string(), "fig5_bop");
    EXPECT_GT(run.at("wall_s").as_number(), 0.0);
    if (run.at("warmup").as_bool()) ++warmups;
    ++lines;
  }
  EXPECT_EQ(lines, 3);  // 1 warmup + 2 measured
  EXPECT_EQ(warmups, 1);
}

TEST(CtsBenchd, AnalyticBenchPhasesCarryNamedSpans) {
  // The analytic benches must attribute their inner loops (rate-function
  // scans, curve evaluations) to named phases, not just the "bench" root.
  const std::string out = ::testing::TempDir() + "/analytic_phases.json";
  const std::string cmd = "'" + benchd() +
                          "' --suite=analytic --filter=fig5 --repeats=2 "
                          "--warmup=0 --quiet --bench-dir='" +
                          CTS_BENCH_BIN_DIR + "' --out='" + out + "'";
  ASSERT_EQ(shell(cmd), 0) << cmd;
  const obs::JsonValue doc = obs::json_parse(read_file(out));
  const obs::JsonValue& phases = doc.at("benches").at("fig5_bop").at("phases");
  ASSERT_GE(phases.size(), 2u);
  bool saw_rate_fn = false;
  for (const obs::JsonValue& phase : phases.items) {
    if (phase.at("phase").as_string() == "rate_fn") saw_rate_fn = true;
  }
  EXPECT_TRUE(saw_rate_fn);
}

TEST(CtsBenchd, ListAndUsageModes) {
  const std::string list = ::testing::TempDir() + "/benchd_list.txt";
  ASSERT_EQ(shell("'" + benchd() + "' --list > '" + list + "'"), 0);
  const std::string text = read_file(list);
  EXPECT_NE(text.find("fig9_sim_markov"), std::string::npos);
  EXPECT_NE(text.find("table1"), std::string::npos);
  EXPECT_EQ(shell("'" + benchd() + "' --suite=bogus 2>/dev/null >/dev/null"),
            2);
}

TEST(BenchBinaries, HelpPrintsFlagListAndExitsZero) {
  const std::string out = ::testing::TempDir() + "/bench_help.txt";
  const std::string bench = std::string(CTS_BENCH_BIN_DIR) + "/bench_table1";
  ASSERT_EQ(shell("'" + bench + "' --help > '" + out + "'"), 0);
  const std::string text = read_file(out);
  EXPECT_NE(text.find("--metrics"), std::string::npos);
  EXPECT_NE(text.find("--perf"), std::string::npos);
  EXPECT_NE(text.find("--trace"), std::string::npos);
  EXPECT_NE(text.find("--help"), std::string::npos);
}

#else

TEST(ToolsE2e, DISABLED_ToolsNotBuilt) {}

#endif  // CTS_TOOLS_BIN_DIR && CTS_BENCH_BIN_DIR

}  // namespace
