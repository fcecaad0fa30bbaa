// ObsGuard harness behaviour: --help must exit 0 after printing the known
// flag list, unwritable report paths must degrade to a warning (never abort
// a finished bench), and the BenchSpec constructor must echo kind/title
// into the run report.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(BenchSuite, LooksUpRegisteredSpecs) {
  const bench::BenchSpec& s = bench::spec("table1");
  EXPECT_STREQ(s.binary, "bench_table1");
  EXPECT_STREQ(s.kind, "analytic");
  EXPECT_THROW(bench::spec("no_such_bench"), cts::util::InvalidArgument);
}

TEST(ObsGuardDeathTest, HelpPrintsFlagListAndExitsZero) {
  const char* argv[] = {"prog", "--help"};
  const cts::util::Flags flags(2, argv);
  EXPECT_EXIT(
      {
        bench::ObsGuard guard(flags, bench::spec("table1"), {"frames"});
        (void)guard;
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ObsGuard, UnwritableReportPathsDoNotAbort) {
  const std::string bad = "/nonexistent_dir_cts_test/report.json";
  const std::string metrics_arg = "--metrics=" + bad;
  const std::string trace_arg = "--trace=" + bad;
  const char* argv[] = {"prog", metrics_arg.c_str(), trace_arg.c_str(),
                        "--quiet"};
  const cts::util::Flags flags(4, argv);
  {
    bench::ObsGuard guard(flags, "unwritable_test");
    (void)guard;
  }  // destructor writes the reports; failure must be a warning, not a throw
  SUCCEED();
}

TEST(ObsGuard, BenchSpecCtorEchoesKindAndTitleIntoRunReport) {
  const std::string path = ::testing::TempDir() + "/cts_obsguard_metrics.json";
  const std::string metrics_arg = "--metrics=" + path;
  const char* argv[] = {"prog", metrics_arg.c_str(), "--quiet"};
  const cts::util::Flags flags(3, argv);
  {
    bench::ObsGuard guard(flags, bench::spec("fig9_sim_markov"));
    (void)guard;
  }
  const cts::obs::JsonValue doc = cts::obs::json_parse(slurp(path));
  EXPECT_EQ(doc.at("config").at("run_id").as_string(), "fig9_sim_markov");
  EXPECT_EQ(doc.at("config").at("bench_kind").as_string(), "sim");
  EXPECT_FALSE(doc.at("config").at("bench_title").as_string().empty());
}

}  // namespace
