// cts.statsreq.v1 / cts.stats.v1 wire schema: requests and replies must
// round-trip losslessly (including the metrics snapshot and span table),
// and the strict parser must reject malformed documents rather than
// guessing.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "cts/net/stats.hpp"
#include "cts/obs/json.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/util/error.hpp"

namespace net = cts::net;
namespace obs = cts::obs;

namespace {

TEST(StatsRequest, RoundTrips) {
  const std::string text = net::write_stats_request_json();
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(text, &error)) << error;
  EXPECT_NO_THROW(net::parse_stats_request(text));
  EXPECT_THROW(net::parse_stats_request(R"({"schema":"cts.job.v1"})"),
               cts::util::InvalidArgument);
  EXPECT_THROW(net::parse_stats_request("{}"), cts::util::InvalidArgument);
}

TEST(Stats, RoundTripsLosslessly) {
  net::WorkerStats stats;
  stats.worker = "cts_shardd:9001";
  stats.pid = 4242;
  stats.uptime_s = 12.5;
  stats.jobs_in_flight = 1;
  stats.jobs_ok = 5;
  stats.jobs_failed = 2;
  stats.jobs_retried = 1;
  stats.stats_served = 3;
  stats.metrics.add("shardd.jobs_ok", 5);
  stats.metrics.add_sum("shardd.cells", 1.25e9);
  stats.metrics.observe_log("shardd.job_wall_ms", 812.5);
  stats.metrics.observe_log("shardd.job_wall_ms", 911.25);
  stats.spans.push_back({"shardd.exec", 5, 4'000'000, 3'900'000, 700'000,
                         900'000});

  const std::string text = net::write_stats_json(stats);
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(text, &error)) << error << text;
  EXPECT_EQ(obs::json_parse(text).at("schema").as_string(),
            net::kStatsSchema);

  const net::WorkerStats back = net::parse_stats(text);
  EXPECT_EQ(back.worker, "cts_shardd:9001");
  EXPECT_EQ(back.pid, 4242);
  EXPECT_DOUBLE_EQ(back.uptime_s, 12.5);
  EXPECT_EQ(back.jobs_in_flight, 1u);
  EXPECT_EQ(back.jobs_ok, 5u);
  EXPECT_EQ(back.jobs_failed, 2u);
  EXPECT_EQ(back.jobs_retried, 1u);
  EXPECT_EQ(back.stats_served, 3u);

  // The metrics snapshot is lossless: merging the parsed shard into a
  // fresh registry reproduces counters, Kahan sums, and histogram moments.
  EXPECT_EQ(back.metrics.counters().at("shardd.jobs_ok"), 5u);
  EXPECT_DOUBLE_EQ(back.metrics.sums().at("shardd.cells").value(), 1.25e9);
  const obs::LogHistogramCell& hist =
      back.metrics.log_histograms().at("shardd.job_wall_ms");
  EXPECT_EQ(hist.stats().count(), 2u);
  EXPECT_DOUBLE_EQ(hist.stats().mean(), (812.5 + 911.25) / 2);

  ASSERT_EQ(back.spans.size(), 1u);
  EXPECT_EQ(back.spans[0].name, "shardd.exec");
  EXPECT_EQ(back.spans[0].count, 5u);
  EXPECT_DOUBLE_EQ(back.spans[0].self_us, 3'900'000.0);
}

// Every integer field goes through one checked conversion: a number its
// type cannot hold is rejected by name instead of cast (undefined
// behaviour).
TEST(Stats, ParserRejectsUnrepresentableIntegers) {
  net::WorkerStats stats;
  stats.worker = "w";
  stats.pid = 4242;
  stats.jobs_ok = 5;
  stats.stats_served = 3;
  stats.spans.push_back({"shardd.exec", 5, 4'000'000, 3'900'000, 700'000,
                         900'000});
  const std::string text = net::write_stats_json(stats);
  ASSERT_NO_THROW(net::parse_stats(text));
  const auto with = [&text](const std::string& from, const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    std::string out = text;
    if (at != std::string::npos) out.replace(at, from.size(), to);
    return out;
  };
  const std::pair<const char*, const char*> cases[] = {
      {"\"pid\":4242", "\"pid\":1e300"},
      {"\"ok\":5", "\"ok\":1e300"},
      {"\"stats_served\":3", "\"stats_served\":1e300"},
      {"\"stats_served\":3", "\"stats_served\":-1"},
      {"\"count\":5", "\"count\":1e20"},
      {"\"total_us\":4000000", "\"total_us\":1e300"},
      {"\"max_us\":900000", "\"max_us\":0.5"},
  };
  for (const auto& [from, to] : cases) {
    EXPECT_THROW(net::parse_stats(with(from, to)),
                 cts::util::InvalidArgument)
        << to;
  }
}

TEST(Stats, ParserRejectsMalformedDocuments) {
  EXPECT_THROW(net::parse_stats("not json"), cts::util::Error);
  EXPECT_THROW(net::parse_stats(R"({"schema":"cts.stats.v2"})"),
               cts::util::InvalidArgument);
  // A syntactically fine document missing the jobs section must throw,
  // not default-construct counters.
  EXPECT_THROW(
      net::parse_stats(
          R"({"schema":"cts.stats.v1","worker":"w","pid":1,"uptime_s":1.0})"),
      cts::util::InvalidArgument);
}

}  // namespace
