#include "cts/obs/run_report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "cts/obs/json.hpp"

namespace obs = cts::obs;

namespace {

TEST(JsonWriter, EmitsValidNestedDocument) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("name").value("a \"quoted\" value\n");
  w.key("count").value(std::uint64_t{7});
  w.key("pi").value(3.25);
  w.key("flag").value(true);
  w.key("nothing").null();
  w.key("list").begin_array().value(std::int64_t{1}).value(2.0).end_array();
  w.end_object();
  EXPECT_TRUE(w.complete());
  std::string error;
  EXPECT_TRUE(obs::json_parse_check(os.str(), &error)) << error << "\n"
                                                       << os.str();
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonParseCheck, RejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(obs::json_parse_check("", &error));
  EXPECT_FALSE(obs::json_parse_check("{", &error));
  EXPECT_FALSE(obs::json_parse_check("{\"a\":1,}", &error));
  EXPECT_FALSE(obs::json_parse_check("[1 2]", &error));
  EXPECT_FALSE(obs::json_parse_check("{\"a\":01}", &error));
  EXPECT_FALSE(obs::json_parse_check("\"unterminated", &error));
  EXPECT_FALSE(obs::json_parse_check("{} trailing", &error));
  EXPECT_TRUE(obs::json_parse_check(" {\"a\": [1, 2.5e-3, null]} ", &error))
      << error;
}

TEST(RunReport, CombinesConfigEchoWithRegistryMetrics) {
  obs::MetricsRegistry reg;
  reg.add("sim.frames_total", 1234);
  reg.gauge("sim.threads", 4.0);
  reg.observe_log("sim.replication.wall_ms", 12.0);

  obs::RunReport report;
  report.set("run_id", "fig8_sim_clr");
  report.set("master_seed", std::uint64_t{0x5EEDC0DEULL});
  report.set("replications", std::int64_t{12});
  report.set("repro_full", false);
  report.set("utilisation", 0.9);

  std::ostringstream os;
  report.write_json(os, reg);
  const std::string text = os.str();
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("\"config\""), std::string::npos);
  EXPECT_NE(text.find("\"run_id\":\"fig8_sim_clr\""), std::string::npos);
  EXPECT_NE(text.find("\"master_seed\":" + std::to_string(0x5EEDC0DEULL)),
            std::string::npos);
  EXPECT_NE(text.find("\"metrics\""), std::string::npos);
  EXPECT_NE(text.find("\"sim.frames_total\":1234"), std::string::npos);
  EXPECT_NE(text.find("\"log_histograms\":{\"sim.replication.wall_ms\""),
            std::string::npos);
}

TEST(RunReport, SetOverwritesExistingKeyInPlace) {
  obs::MetricsRegistry reg;
  obs::RunReport report;
  report.set("scale", "default");
  report.set("scale", "paper");
  std::ostringstream os;
  report.write_json(os, reg);
  const std::string text = os.str();
  EXPECT_EQ(text.find("default"), std::string::npos);
  EXPECT_NE(text.find("\"scale\":\"paper\""), std::string::npos);
}

TEST(RunReport, WriteProducesAParsableFile) {
  obs::MetricsRegistry reg;
  reg.add("x", 1);
  obs::RunReport report;
  report.set("run_id", "unit_test");
  const std::string path = ::testing::TempDir() + "/cts_report_test.json";
  ASSERT_TRUE(report.write(path, reg));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  EXPECT_TRUE(obs::json_parse_check(buffer.str(), &error)) << error;
}

}  // namespace
