#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <vector>

#include "cts/obs/json.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/util/error.hpp"

namespace obs = cts::obs;

namespace {

// Exact sample quantile with the matching-rank convention the cell
// documents: sorted[ceil(q * n) - 1] (0-based).
double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  if (rank == 0) rank = 1;
  return xs[rank - 1];
}

TEST(LogHistogram, EmptyPercentileIsZero) {
  obs::LogHistogramCell h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.stats().count(), 0u);
  // relative_accuracy() is recomputed from gamma, so it round-trips to
  // within an ulp or two of the requested alpha, not bit-exactly.
  EXPECT_NEAR(h.relative_accuracy(),
              obs::LogHistogramCell::kDefaultRelativeAccuracy, 1e-12);
}

TEST(LogHistogram, SingleValueAllPercentilesWithinAccuracy) {
  obs::LogHistogramCell h;
  h.observe(12.5);
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(h.percentile(q), 12.5, 12.5 * h.relative_accuracy()) << q;
  }
}

TEST(LogHistogram, RejectsInvalidAccuracy) {
  EXPECT_THROW(obs::LogHistogramCell(0.0), cts::util::InvalidArgument);
  EXPECT_THROW(obs::LogHistogramCell(1.0), cts::util::InvalidArgument);
  EXPECT_THROW(obs::LogHistogramCell(-0.1), cts::util::InvalidArgument);
}

// The documented guarantee: every percentile of every (positive)
// distribution within 2% relative error of the exact sample quantile.
// Log-normal latencies are the adversarial case for fixed-edge
// histograms — the tail spans orders of magnitude.
TEST(LogHistogram, PercentilesWithinTwoPercentOfExactLogNormal) {
  std::mt19937_64 rng(20260807);
  std::lognormal_distribution<double> lat(1.5, 1.2);
  obs::LogHistogramCell h;
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    const double v = lat(rng);
    xs.push_back(v);
    h.observe(v);
  }
  for (const double q : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    const double exact = exact_quantile(xs, q);
    const double est = h.percentile(q);
    EXPECT_LE(std::abs(est - exact) / exact, 0.0201)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(LogHistogram, PercentilesWithinTwoPercentOfExactUniform) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> lat(0.05, 900.0);
  obs::LogHistogramCell h;
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    const double v = lat(rng);
    xs.push_back(v);
    h.observe(v);
  }
  for (const double q : {0.05, 0.50, 0.95, 0.99}) {
    const double exact = exact_quantile(xs, q);
    EXPECT_LE(std::abs(h.percentile(q) - exact) / exact, 0.0201) << q;
  }
}

TEST(LogHistogram, ZeroAndNegativeObservationsLandInZeroBucket) {
  obs::LogHistogramCell h;
  h.observe(0.0);
  h.observe(-3.0);
  h.observe(10.0);
  EXPECT_EQ(h.zero_count(), 2u);
  EXPECT_EQ(h.stats().count(), 3u);
  // Ranks 1 and 2 are the non-positive observations; rank 3 is 10.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_NEAR(h.percentile(1.0), 10.0, 10.0 * h.relative_accuracy());
}

// Merging shards must be lossless: merged percentiles/buckets identical to
// a single cell fed the union of the observations.
TEST(LogHistogram, MergeIsLossless) {
  std::mt19937_64 rng(99);
  std::lognormal_distribution<double> lat(0.0, 2.0);
  obs::LogHistogramCell whole, a, b;
  for (int i = 0; i < 4000; ++i) {
    const double v = lat(rng);
    whole.observe(v);
    (i % 2 == 0 ? a : b).observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.buckets(), whole.buckets());
  EXPECT_EQ(a.zero_count(), whole.zero_count());
  EXPECT_EQ(a.stats().count(), whole.stats().count());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), whole.percentile(q)) << q;
  }
}

TEST(LogHistogram, MergeRejectsDifferentAccuracy) {
  obs::LogHistogramCell fine(0.01), coarse(0.05);
  fine.observe(1.0);
  coarse.observe(1.0);
  EXPECT_THROW(fine.merge(coarse), cts::util::InvalidArgument);
}

TEST(LogHistogram, MergeFromEmptyIsNoop) {
  obs::LogHistogramCell h, empty;
  h.observe(5.0);
  h.merge(empty);
  EXPECT_EQ(h.stats().count(), 1u);
}

TEST(LogHistogram, ShardRegistryRoundTrip) {
  obs::MetricsShard shard;
  std::mt19937_64 rng(41);
  std::lognormal_distribution<double> lat(2.0, 0.7);
  for (int i = 0; i < 1000; ++i) shard.observe_log("rpc.ms", lat(rng));
  shard.observe_log("rpc.ms", 0.0);

  obs::MetricsRegistry reg;
  reg.merge(shard);
  const obs::MetricsShard snap = reg.snapshot();
  ASSERT_EQ(snap.log_histograms().count("rpc.ms"), 1u);
  EXPECT_EQ(snap.log_histograms().count("missing"), 0u);
  const obs::LogHistogramCell& cell = snap.log_histograms().at("rpc.ms");
  EXPECT_EQ(cell.stats().count(), 1001u);
  EXPECT_EQ(cell.buckets(), shard.log_histograms().at("rpc.ms").buckets());
}

// Snapshot JSON round-trip must preserve the full merge state — a cell
// restored on another process merges exactly like the original.
TEST(LogHistogram, SnapshotJsonRoundTripIsExact) {
  obs::MetricsShard shard;
  std::mt19937_64 rng(5);
  std::lognormal_distribution<double> lat(1.0, 1.5);
  for (int i = 0; i < 3000; ++i) shard.observe_log("svc.ms", lat(rng));
  shard.observe_log("svc.ms", -1.0);
  shard.add("jobs", 3);

  std::ostringstream os;
  obs::JsonWriter w(os);
  obs::write_metrics_snapshot(w, shard);
  const obs::JsonValue doc = obs::json_parse(os.str());
  const obs::MetricsShard back = obs::metrics_snapshot_from_json(doc);

  const obs::LogHistogramCell& orig = shard.log_histograms().at("svc.ms");
  const obs::LogHistogramCell& rest = back.log_histograms().at("svc.ms");
  EXPECT_DOUBLE_EQ(rest.gamma(), orig.gamma());
  EXPECT_EQ(rest.zero_count(), orig.zero_count());
  EXPECT_EQ(rest.buckets(), orig.buckets());
  EXPECT_EQ(rest.stats().count(), orig.stats().count());
  EXPECT_DOUBLE_EQ(rest.stats().mean(), orig.stats().mean());
  EXPECT_DOUBLE_EQ(rest.stats().m2(), orig.stats().m2());
  EXPECT_DOUBLE_EQ(rest.stats().min(), orig.stats().min());
  EXPECT_DOUBLE_EQ(rest.stats().max(), orig.stats().max());
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(rest.percentile(q), orig.percentile(q)) << q;
  }

  // A restored cell must merge with a live one (same default gamma).
  obs::LogHistogramCell live;
  live.observe(4.2);
  obs::LogHistogramCell merged = rest;
  EXPECT_NO_THROW(merged.merge(live));
  EXPECT_EQ(merged.stats().count(), orig.stats().count() + 1);
}

// Snapshots without the section (older writers) still parse.
TEST(LogHistogram, SnapshotWithoutSectionParses) {
  obs::MetricsShard shard;
  shard.add("jobs", 1);
  std::ostringstream os;
  obs::JsonWriter w(os);
  obs::write_metrics_snapshot(w, shard);
  EXPECT_EQ(os.str().find("log_histograms"), std::string::npos);
  const obs::MetricsShard back =
      obs::metrics_snapshot_from_json(obs::json_parse(os.str()));
  EXPECT_TRUE(back.log_histograms().empty());
  EXPECT_EQ(back.counters().at("jobs"), 1u);
}

TEST(LogHistogram, RegistryWriteJsonEmitsPercentileSection) {
  obs::MetricsRegistry reg;
  reg.observe_log("rpc.ms", 10.0);
  reg.observe_log("rpc.ms", 20.0);
  std::ostringstream os;
  reg.write_json(os);
  const obs::JsonValue doc = obs::json_parse(os.str());
  const obs::JsonValue& h = doc.at("log_histograms").at("rpc.ms");
  EXPECT_EQ(h.at("count").as_number(), 2.0);
  EXPECT_NEAR(h.at("p50").as_number(), 10.0, 10.0 * 0.02);
  EXPECT_NEAR(h.at("p99").as_number(), 20.0, 20.0 * 0.02);
}

TEST(LogHistogram, FromStateRejectsBadGamma) {
  EXPECT_THROW(obs::LogHistogramCell::from_state(
                   1.0, 0, {}, cts::util::MomentAccumulator()),
               cts::util::InvalidArgument);
}

}  // namespace
