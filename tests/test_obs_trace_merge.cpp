// Cross-process trace merging: the NTP-style offset estimate must recover
// a known clock skew (exactly, under symmetric delays), the merged Chrome
// trace must carry one named process lane per participant with
// offset-shifted timestamps, and the TraceEvent wire form must round-trip.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cts/obs/json.hpp"
#include "cts/obs/trace_merge.hpp"
#include "cts/util/error.hpp"

namespace obs = cts::obs;

namespace {

TEST(ClockOffset, RecoversSkewUnderSymmetricDelay) {
  // Worker clock = dispatcher clock + 5000us; 200us each way on the wire;
  // the worker holds the job for 30000us.
  const std::int64_t offset = 5000;
  const std::int64_t t0 = 1'000'000;
  const std::int64_t t1 = t0 + 200 + offset;
  const std::int64_t t2 = t1 + 30'000;
  const std::int64_t t3 = t0 + 200 + 30'000 + 200;
  EXPECT_EQ(obs::estimate_clock_offset_us(t0, t1, t2, t3), offset);
}

TEST(ClockOffset, AsymmetryErrorIsBoundedByHalfRtt) {
  // All 400us of delay on the forward path: the estimate is off by
  // exactly half the RTT — the documented worst case.
  const std::int64_t offset = -7000;
  const std::int64_t t0 = 50'000;
  const std::int64_t t1 = t0 + 400 + offset;
  const std::int64_t t2 = t1 + 1'000;
  const std::int64_t t3 = t0 + 400 + 1'000;
  const std::int64_t estimated = obs::estimate_clock_offset_us(t0, t1, t2, t3);
  EXPECT_LE(std::abs(estimated - offset), 200);
}

TEST(ClockOffset, ZeroWhenClocksAgree) {
  EXPECT_EQ(obs::estimate_clock_offset_us(100, 150, 250, 300), 0);
}

TEST(TraceMerge, WritesOneNamedLanePerProcessWithShiftedTimestamps) {
  std::vector<obs::ProcessTrace> lanes;
  lanes.push_back({"dispatcher", 1, 0, {{"simd.net.job", 0, 1000, 500}}});
  lanes.push_back({"worker a", 2, 300, {{"shardd.exec", 0, 1400, 200}}});
  lanes.push_back({"worker b", 3, 0, {}});  // idle lane still gets a name

  std::ostringstream os;
  obs::write_merged_trace_json(os, lanes);
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(os.str(), &error)) << error << os.str();
  const obs::JsonValue doc = obs::json_parse(os.str());
  const obs::JsonValue& events = doc.at("traceEvents");

  // 3 process_name metadata events + 2 span events.
  ASSERT_EQ(events.size(), 5u);
  std::size_t metadata = 0;
  bool saw_shifted_worker_span = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::JsonValue& e = events.at(i);
    if (e.at("ph").as_string() == "M") {
      ++metadata;
      EXPECT_EQ(e.at("name").as_string(), "process_name");
      continue;
    }
    EXPECT_EQ(e.at("ph").as_string(), "X");
    if (e.at("name").as_string() == "shardd.exec") {
      // Lane offset 300 subtracted: 1400 -> 1100.
      EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 1100.0);
      EXPECT_DOUBLE_EQ(e.at("pid").as_number(), 2.0);
      saw_shifted_worker_span = true;
    }
  }
  EXPECT_EQ(metadata, 3u);
  EXPECT_TRUE(saw_shifted_worker_span);
}

TEST(TraceMerge, WriteFailsGracefullyOnBadPath) {
  EXPECT_FALSE(
      obs::write_merged_trace("/nonexistent_dir_cts_test/trace.json", {}));
}

TEST(TraceEventsWire, RoundTripsThroughJson) {
  const std::vector<obs::TraceEvent> events = {
      {"shardd.job", 0, 120, 4000},
      {"shardd.exec", 1, 150, 3800},
  };
  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    obs::write_trace_events(w, events);
  }
  const std::vector<obs::TraceEvent> back =
      obs::trace_events_from_json(obs::json_parse(os.str()));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].name, "shardd.job");
  EXPECT_EQ(back[0].tid, 0);
  EXPECT_EQ(back[0].ts_us, 120);
  EXPECT_EQ(back[0].dur_us, 4000);
  EXPECT_EQ(back[1].name, "shardd.exec");
}

TEST(TraceEventsWire, RejectsMalformedDocuments) {
  const auto parse = [](const std::string& text) {
    return obs::trace_events_from_json(obs::json_parse(text));
  };
  EXPECT_THROW(parse("{}"), cts::util::InvalidArgument);
  EXPECT_THROW(parse("[42]"), cts::util::InvalidArgument);
  EXPECT_THROW(parse(R"([{"tid":0,"ts_us":0,"dur_us":1}])"),
               cts::util::InvalidArgument);  // missing name
  EXPECT_THROW(parse(R"([{"name":"x","tid":0,"ts_us":0,"dur_us":-1}])"),
               cts::util::InvalidArgument);  // negative duration
  // Numbers no integer field can hold: casting them would be undefined.
  EXPECT_THROW(parse(R"([{"name":"x","tid":0,"ts_us":1e300,"dur_us":1}])"),
               cts::util::InvalidArgument);
  EXPECT_THROW(parse(R"([{"name":"x","tid":0,"ts_us":-1e300,"dur_us":1}])"),
               cts::util::InvalidArgument);
  EXPECT_THROW(parse(R"([{"name":"x","tid":0,"ts_us":0,"dur_us":1.5}])"),
               cts::util::InvalidArgument);
  EXPECT_THROW(
      parse(R"([{"name":"x","tid":1099511627776,"ts_us":0,"dur_us":1}])"),
      cts::util::InvalidArgument);  // tid = 2^40 does not fit an int
}

}  // namespace
