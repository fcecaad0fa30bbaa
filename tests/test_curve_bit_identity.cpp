// Curve-level bit-identity for the analytic path: for every zoo model and
// fig operating point, the AnalyticCurve answered from the CTS envelope
// must be byte-identical to (a) per-point cold scalar scans (the test
// oracle in cts_scan_oracle.hpp) and (b) the same curve under a forced
// scalar SIMD dispatch.  Plus a threads x shards matrix proving the batched
// Davies-Harte generation preserves the replication layout invariance.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cts/core/br_asymptotic.hpp"
#include "cts/core/large_n.hpp"
#include "cts/core/rate_function.hpp"
#include "cts/core/simd.hpp"
#include "cts/fit/model_zoo.hpp"
#include "cts/sim/curves.hpp"
#include "cts_scan_oracle.hpp"

namespace cc = cts::core;
namespace cf = cts::fit;
namespace cm = cts::sim;
namespace cs = cts::core::simd;

namespace {

struct ForceGuard {
  ~ForceGuard() { cs::clear_force(); }
};

const std::vector<std::string>& zoo_ids() {
  static const std::vector<std::string> ids = {
      "za:0.9",  "vv:1",       "l",          "white",
      "ar1:0.975", "dar:0.9:2", "farima:0.3", "mginf:1.4"};
  return ids;
}

std::vector<cm::MuxGeometry> fig_operating_points() {
  cm::MuxGeometry fig2;  // N = 30, c = 538 (Fig. 2/5 point)
  fig2.n_sources = 30;
  fig2.bandwidth_per_source = 538.0;
  cm::MuxGeometry fig9;  // N = 100, c = 526 (Fig. 9 point)
  fig9.n_sources = 100;
  fig9.bandwidth_per_source = 526.0;
  return {fig2, fig9};
}

/// Full-precision JSON serialization: byte-equal strings iff every field
/// of the two curves is bit-identical.
std::string curve_json(const cm::AnalyticCurve& curve) {
  std::string out = "{\"model\":\"" + curve.model + "\",\"points\":[";
  char buf[128];
  for (std::size_t i = 0; i < curve.buffer_ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s[%.17g,%.17g,%zu]", i ? "," : "",
                  curve.buffer_ms[i], curve.log10_bop[i],
                  curve.critical_m[i]);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace

TEST(CurveBitIdentity, WarmStartMatchesColdScanEverywhere) {
  const std::vector<double> grid = cm::buffer_grid_ms(0.5, 100.0, 30);
  for (const cm::MuxGeometry& g : fig_operating_points()) {
    for (const std::string& id : zoo_ids()) {
      const cf::ModelSpec model = cf::model_from_id(id);
      const cm::AnalyticCurve br = cm::br_curve(model, g, grid);
      const cm::AnalyticCurve ln = cm::large_n_curve(model, g, grid);
      // Cold reference: the scalar scan oracle, per point.
      const cts::testing::ScanOracle oracle(model.acf, model.mean,
                                            model.variance,
                                            g.bandwidth_per_source);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const double b = g.buffer_ms_to_cells(grid[i]) /
                         static_cast<double>(g.n_sources);
        const cc::RateResult cold = oracle.evaluate(b);
        const cc::BopPoint br_ref = cc::br_log10_bop(cold, b, g.n_sources);
        const cc::BopPoint ln_ref =
            cc::large_n_log10_bop(cold, b, g.n_sources);
        EXPECT_EQ(br.critical_m[i], cold.critical_m)
            << id << " N=" << g.n_sources << " i=" << i;
        EXPECT_EQ(br.log10_bop[i], br_ref.log10_bop)
            << id << " N=" << g.n_sources << " i=" << i;
        EXPECT_EQ(ln.critical_m[i], cold.critical_m)
            << id << " N=" << g.n_sources << " i=" << i;
        EXPECT_EQ(ln.log10_bop[i], ln_ref.log10_bop)
            << id << " N=" << g.n_sources << " i=" << i;
      }
    }
  }
}

TEST(CurveBitIdentity, DispatchedCurveJsonMatchesForcedScalar) {
  // No SIMD kernel sits on the analytic path; the dispatch kind must not
  // reach the curves.
  ForceGuard guard;
  const std::vector<double> grid = cm::buffer_grid_ms(0.5, 100.0, 30);
  for (const cm::MuxGeometry& g : fig_operating_points()) {
    for (const std::string& id : zoo_ids()) {
      const cf::ModelSpec model = cf::model_from_id(id);
      cs::force(cs::best_supported());
      const std::string br_simd = curve_json(cm::br_curve(model, g, grid));
      const std::string ln_simd =
          curve_json(cm::large_n_curve(model, g, grid));
      const std::string cts_simd = curve_json(cm::cts_curve(model, g, grid));
      cs::force(cs::Kind::kScalar);
      EXPECT_EQ(curve_json(cm::br_curve(model, g, grid)), br_simd)
          << id << " N=" << g.n_sources;
      EXPECT_EQ(curve_json(cm::large_n_curve(model, g, grid)), ln_simd)
          << id << " N=" << g.n_sources;
      EXPECT_EQ(curve_json(cm::cts_curve(model, g, grid)), cts_simd)
          << id << " N=" << g.n_sources;
      cs::clear_force();
    }
  }
}

TEST(CurveBitIdentity, ThreadsAndShardsMatrixIsInvariant) {
  // The batched Davies-Harte refill sits on the per-replication hot path;
  // seeds key off the global replication index, so any threads x shards
  // layout must merge byte-identically.
  const cf::ModelSpec model = cf::model_from_id("farima:0.3");
  cm::MuxGeometry g;
  g.n_sources = 5;
  g.bandwidth_per_source = 520.0;
  cm::ReplicationConfig scale;
  scale.replications = 4;
  scale.frames_per_replication = 2000;
  scale.warmup_frames = 100;
  scale.progress = false;
  const std::vector<double> grid = {0.5, 5.0};
  const cm::ReplicationConfig config =
      cm::replication_config_for_grid(model, g, grid, scale);

  cm::ReplicationConfig single = config;
  single.threads = 1;
  const cm::ReplicationResult reference = cm::run_replicated(model, single);

  for (const unsigned threads : {2u, 4u}) {
    cm::ReplicationConfig multi = config;
    multi.threads = threads;
    const cm::ReplicationResult got = cm::run_replicated(model, multi);
    ASSERT_EQ(got.clr.size(), reference.clr.size());
    for (std::size_t i = 0; i < got.clr.size(); ++i) {
      EXPECT_EQ(got.clr[i].pooled_clr, reference.clr[i].pooled_clr)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(got.clr[i].clr.low(), reference.clr[i].clr.low());
      EXPECT_EQ(got.clr[i].clr.high(), reference.clr[i].clr.high());
    }
    EXPECT_EQ(got.total_frames, reference.total_frames);
  }

  for (const std::size_t shards : {2u, 3u}) {
    std::vector<cm::ReplicationSample> samples;
    for (std::size_t s = 0; s < shards; ++s) {
      cm::ReplicationConfig shard = config;
      shard.threads = 2;
      shard.shard_index = s;
      shard.shard_count = shards;
      const cm::ReplicationResult part = cm::run_replicated(model, shard);
      samples.insert(samples.end(), part.samples.begin(),
                     part.samples.end());
    }
    const cm::ReplicationResult merged = cm::aggregate_replications(
        config.buffer_sizes_cells, config.bop_thresholds_cells,
        std::move(samples));
    ASSERT_EQ(merged.clr.size(), reference.clr.size());
    for (std::size_t i = 0; i < merged.clr.size(); ++i) {
      EXPECT_EQ(merged.clr[i].pooled_clr, reference.clr[i].pooled_clr)
          << "shards=" << shards << " i=" << i;
    }
    EXPECT_EQ(merged.total_frames, reference.total_frames);
  }
}
