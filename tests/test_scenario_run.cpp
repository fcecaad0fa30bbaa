// Scenario executor (cts/sim/scenario_run.hpp): per-hop cell
// conservation holds exactly by construction, shard layout and thread
// count never change the samples (bit-identical doubles), the serialized
// merge of partials equals the single-process document byte for byte,
// and the dormant ATM components (smoothing, GCRA, AAL5, priority
// buffer) wired into the pipeline publish their cts::obs metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cts/obs/metrics.hpp"
#include "cts/sim/scenario.hpp"
#include "cts/sim/scenario_run.hpp"
#include "cts/util/error.hpp"

namespace sim = cts::sim;
namespace obs = cts::obs;

namespace {

// A small but full-featured scenario: a smoothed + AAL5 + policed group
// and a plain group into a priority tandem head, cross traffic into the
// FIFO tail.  Capacities are tight so losses actually occur.
const char* kSpec =
    "cts.scenario.v1\n"
    "[scenario]\n"
    "name = run_test\n"
    "frames = 400\n"
    "warmup = 50\n"
    "replications = 6\n"
    "seed = 12345\n"
    "[source video]\n"
    "kind = geometric\n"
    "mean = 200\n"
    "variance = 4000\n"
    "a = 0.8\n"
    "count = 3\n"
    "smooth = 4\n"
    "aal5 = on\n"
    "police_scr = 5200\n"
    "police_bt = 0.05\n"
    "police_pcr = 9000\n"
    "police_cdvt = 0.002\n"
    "[source bulk]\n"
    "kind = white\n"
    "mean = 200\n"
    "variance = 3000\n"
    "count = 2\n"
    "priority = low\n"
    "[source bg]\n"
    "kind = lrd\n"
    "mean = 150\n"
    "variance = 2000\n"
    "hurst = 0.85\n"
    "weight = 0.5\n"
    "[hop head]\n"
    "input = video, bulk\n"
    "capacity = 1030\n"
    "buffer = 260\n"
    "threshold = 160\n"
    "[hop tail]\n"
    "input = head, bg\n"
    "capacity = 1180\n"
    "buffer = 220\n"
    "[output]\n"
    "occupancy_buckets = 8\n"
    "hop_trace_every = 20\n";

sim::ScenarioRunResult run_slice(const sim::Scenario& sc, std::size_t index,
                                 std::size_t count, unsigned threads = 1) {
  sim::ScenarioRunOptions options;
  options.shard_index = index;
  options.shard_count = count;
  options.threads = threads;
  options.progress = false;
  return sim::run_scenario(sc, options);
}

TEST(ScenarioRun, PerHopCellConservationIsExact) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const sim::ScenarioRunResult result = run_slice(sc, 0, 1);
  ASSERT_EQ(result.samples.size(), 6u);
  bool any_loss = false;
  for (const sim::ScenarioRepSample& sample : result.samples) {
    ASSERT_EQ(sample.hops.size(), 2u);
    for (const sim::ScenarioHopTally& hop : sample.hops) {
      const double growth = hop.final_workload - hop.initial_workload;
      const double balance = hop.departed + hop.lost() + growth;
      EXPECT_NEAR(hop.arrived(), balance,
                  1e-9 * std::max(1.0, hop.arrived()))
          << "rep " << sample.rep;
      EXPECT_GE(hop.peak_workload, hop.final_workload);
      if (hop.lost() > 0.0) any_loss = true;
      // Occupancy histogram counts every measured frame exactly once.
      std::uint64_t frames = 0;
      for (std::uint64_t c : hop.occupancy) frames += c;
      EXPECT_EQ(frames, sample.frames);
    }
  }
  EXPECT_TRUE(any_loss) << "capacities too loose: conservation untested "
                           "under loss";
}

TEST(ScenarioRun, PriorityHopSplitsClassesAndFifoFoldsThem) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const sim::ScenarioRunResult result = run_slice(sc, 0, 1);
  for (const sim::ScenarioRepSample& sample : result.samples) {
    const sim::ScenarioHopTally& head = sample.hops[0];  // priority
    const sim::ScenarioHopTally& tail = sample.hops[1];  // FIFO
    EXPECT_GT(head.arrived_low, 0.0);   // bulk is low priority
    EXPECT_GT(head.arrived_high, 0.0);  // video is high priority
    // FIFO hops are class-blind: everything is tallied as high.
    EXPECT_EQ(tail.arrived_low, 0.0);
    EXPECT_EQ(tail.lost_low, 0.0);
  }
}

TEST(ScenarioRun, ShardLayoutsAndThreadsAreBitIdentical) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const sim::ScenarioRunResult single = run_slice(sc, 0, 1, 2);

  for (std::size_t shards : {2u, 3u}) {
    std::vector<sim::ScenarioRepSample> stitched;
    for (std::size_t i = 0; i < shards; ++i) {
      const sim::ScenarioRunResult part =
          run_slice(sc, i, shards, i % 2 ? 2 : 1);
      stitched.insert(stitched.end(), part.samples.begin(),
                      part.samples.end());
    }
    ASSERT_EQ(stitched.size(), single.samples.size()) << shards;
    for (std::size_t r = 0; r < stitched.size(); ++r) {
      const sim::ScenarioRepSample& a = single.samples[r];
      const sim::ScenarioRepSample& b = stitched[r];
      ASSERT_EQ(a.rep, b.rep);
      ASSERT_EQ(a.hops.size(), b.hops.size());
      for (std::size_t h = 0; h < a.hops.size(); ++h) {
        // Exact equality: same seeds, same order, same arithmetic.
        EXPECT_EQ(a.hops[h].arrived_high, b.hops[h].arrived_high);
        EXPECT_EQ(a.hops[h].arrived_low, b.hops[h].arrived_low);
        EXPECT_EQ(a.hops[h].lost_high, b.hops[h].lost_high);
        EXPECT_EQ(a.hops[h].lost_low, b.hops[h].lost_low);
        EXPECT_EQ(a.hops[h].departed, b.hops[h].departed);
        EXPECT_EQ(a.hops[h].final_workload, b.hops[h].final_workload);
        EXPECT_EQ(a.hops[h].occupancy, b.hops[h].occupancy);
      }
      for (std::size_t s = 0; s < a.sources.size(); ++s) {
        EXPECT_EQ(a.sources[s].offered, b.sources[s].offered);
        EXPECT_EQ(a.sources[s].policed, b.sources[s].policed);
      }
    }
  }
}

TEST(ScenarioRun, ZooFarimaSourcesBuildSafelyOnReplicationThreads) {
  // Davies-Harte sources of a zoo FARIMA model are built on the
  // replication threads, so they must not share one lazily grown ACF
  // cache: two threads growing it at once corrupt the heap (a sanitizer
  // build reports it on every run; a plain build crashes only sometimes).
  const sim::Scenario sc = sim::parse_scenario(
      "cts.scenario.v1\n"
      "[scenario]\n"
      "name = farima_threads\n"
      "frames = 100\n"
      "warmup = 10\n"
      "replications = 2\n"
      "[source fgn]\n"
      "model = farima:0.4\n"
      "count = 8\n"
      "[hop mux]\n"
      "input = fgn\n"
      "capacity = 4120\n"
      "buffer = 1000\n");
  EXPECT_EQ(sim::write_scenario_result_json(sc, run_slice(sc, 0, 1, 2)),
            sim::write_scenario_result_json(sc, run_slice(sc, 0, 1, 1)));
}

TEST(ScenarioRun, MergedDocumentIsByteIdenticalToSingleProcess) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const std::string single =
      sim::write_scenario_result_json(sc, run_slice(sc, 0, 1));

  std::vector<sim::ScenarioResultDoc> parts;
  for (std::size_t i = 0; i < 2; ++i) {
    sim::ScenarioRunResult part = run_slice(sc, i, 2);
    parts.push_back(sim::parse_scenario_result(
        sim::write_scenario_result_json(sc, part)));
  }
  EXPECT_EQ(sim::merge_scenario_result_json(parts), single);
}

// Seeds travel as decimal strings; one that overflows 64 bits is an
// error, not 2^64 - 1 (strtoull saturates).
TEST(ScenarioRun, ResultParserRejectsOverflowingSeed) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  std::string doc = sim::write_scenario_result_json(sc, run_slice(sc, 0, 2));
  ASSERT_NO_THROW(sim::parse_scenario_result(doc));
  const std::string from = "\"seed\":\"12345\"";
  const std::size_t at = doc.find(from);
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, from.size(), "\"seed\":\"99999999999999999999\"");
  EXPECT_THROW(sim::parse_scenario_result(doc), cts::util::InvalidArgument);
}

// Integer fields written as JSON numbers go through one checked
// conversion: 1e300 frames cannot be cast (undefined behaviour).
TEST(ScenarioRun, ResultParserRejectsUnrepresentableNumbers) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const std::string doc =
      sim::write_scenario_result_json(sc, run_slice(sc, 0, 2));
  for (const char* to : {"\"frames\":1e300", "\"frames\":1e20",
                         "\"frames\":400.5"}) {
    std::string bad = doc;
    const std::string from = "\"frames\":400";
    const std::size_t at = bad.find(from);
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, from.size(), to);
    EXPECT_THROW(sim::parse_scenario_result(bad), cts::util::InvalidArgument)
        << to;
  }
}

TEST(ScenarioRun, TraceOnlyInSliceContainingReplicationZero) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const sim::ScenarioRunResult with = run_slice(sc, 0, 2);
  const sim::ScenarioRunResult without = run_slice(sc, 1, 2);
  ASSERT_EQ(with.traces.size(), 2u);
  EXPECT_FALSE(with.traces[0].empty());
  EXPECT_TRUE(without.traces.empty());
  // Rows are sampled from measured frames of replication 0 only.
  EXPECT_EQ(with.traces[0].size(), 400u / 20u);
}

TEST(ScenarioRun, AtmComponentsPublishObsMetrics) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  (void)run_slice(sc, 0, 1);
  const obs::MetricsShard snap = obs::MetricsRegistry::global().snapshot();

  for (const char* counter :
       {"atm.smoothing.frames", "atm.gcra.cells", "atm.aal5.pdus",
        "atm.aal5.cells", "atm.priority.frames",
        "scenario.replications"}) {
    auto it = snap.counters().find(counter);
    ASSERT_NE(it, snap.counters().end()) << counter;
    EXPECT_GT(it->second, 0u) << counter;
  }
  for (const char* sum :
       {"atm.smoothing.cells_in", "atm.smoothing.cells_out",
        "atm.priority.high_arrived", "atm.priority.low_arrived",
        "scenario.arrived_cells", "scenario.lost_cells",
        "scenario.departed_cells"}) {
    auto it = snap.sums().find(sum);
    ASSERT_NE(it, snap.sums().end()) << sum;
    EXPECT_GT(it->second.value(), 0.0) << sum;
  }
  // The policer saw non-conforming cells in this tight configuration.
  auto nc = snap.counters().find("atm.gcra.nonconforming");
  ASSERT_NE(nc, snap.counters().end());
  EXPECT_GT(nc->second, 0u);
}

TEST(ScenarioRun, AnalyticsOnlyForUnshapedSourceFedFifoHops) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const std::vector<sim::ScenarioHopAnalytic> analytics =
      sim::scenario_analytics(sc);
  ASSERT_EQ(analytics.size(), 2u);
  EXPECT_FALSE(analytics[0].available);  // priority hop
  EXPECT_FALSE(analytics[1].available);  // fed by an upstream hop

  const sim::Scenario plain = sim::parse_scenario(
      "cts.scenario.v1\n"
      "[source a]\n"
      "kind = geometric\n"
      "mean = 500\n"
      "variance = 5000\n"
      "a = 0.8\n"
      "count = 4\n"
      "[hop m]\n"
      "input = a\n"
      "capacity = 2400\n"
      "buffer = 600\n");
  const std::vector<sim::ScenarioHopAnalytic> ok =
      sim::scenario_analytics(plain);
  ASSERT_EQ(ok.size(), 1u);
  ASSERT_TRUE(ok[0].available);
  EXPECT_LT(ok[0].log10_bop, 0.0);
  EXPECT_GE(ok[0].critical_m, 1u);
}

}  // namespace
