// The lower-envelope CTS argmin against the cold scalar scan oracle
// (cts_scan_oracle.hpp): rate and critical_m must match bit for bit on the
// zoo, on the seeded inline model ranges and on a non-monotone V(m), in
// ascending and in shuffled query order.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cts/core/rate_function.hpp"
#include "cts/fit/model_zoo.hpp"
#include "cts/sim/curves.hpp"
#include "cts/sim/scenario_run.hpp"
#include "cts/util/error.hpp"
#include "cts/util/rng.hpp"
#include "cts_scan_oracle.hpp"

namespace cc = cts::core;
namespace cf = cts::fit;
namespace cm = cts::sim;
namespace cu = cts::util;

namespace {

/// Per-source buffers (cells) of a 0.5-2000 ms grid at N = 30.
std::vector<double> buffers_for(double bandwidth, std::size_t points) {
  cm::MuxGeometry g;
  g.n_sources = 30;
  g.bandwidth_per_source = bandwidth;
  std::vector<double> out;
  for (const double ms : cm::buffer_grid_ms(0.5, 2000.0, points)) {
    out.push_back(g.buffer_ms_to_cells(ms) / 30.0);
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Evaluates `buffers` in the given order on one RateFunction and checks
/// every answer against the oracle.
void expect_matches_oracle(const cf::ModelSpec& model, double bandwidth,
                           const std::vector<double>& buffers) {
  const cc::RateFunction rate(model.acf, model.mean, model.variance,
                              bandwidth);
  const cts::testing::ScanOracle oracle(model.acf, model.mean,
                                        model.variance, bandwidth);
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const cc::RateResult got = rate.evaluate(buffers[i]);
    const cc::RateResult want = oracle.evaluate(buffers[i]);
    ASSERT_EQ(got.critical_m, want.critical_m)
        << model.name << " c=" << bandwidth << " b=" << buffers[i];
    ASSERT_TRUE(same_bits(got.rate, want.rate))
        << model.name << " c=" << bandwidth << " b=" << buffers[i];
  }
}

cf::ModelSpec inline_model(const std::string& kind, double a, double hurst,
                           double weight) {
  cm::ScenarioModel m;
  m.kind = kind;
  m.mean = 500;
  m.variance = 5000;
  m.a = a;
  m.hurst = hurst;
  m.weight = weight;
  return cm::resolve_scenario_model(m);
}

}  // namespace

TEST(CtsEnvelope, MatchesScanOracleOnZooModels) {
  const std::vector<std::string> ids = {
      "za:0.9", "vv:0.67", "vv:1.5",    "l",         "white",
      "ar1:0.975", "dar:0.9:3", "farima:0.3", "mginf:1.4"};
  for (const double c : {503.0, 526.0, 538.0, 600.0}) {
    std::vector<double> buffers = buffers_for(c, 1000);
    buffers.insert(buffers.begin(), 0.0);
    for (const std::string& id : ids) {
      expect_matches_oracle(cf::model_from_id(id), c, buffers);
    }
  }
}

TEST(CtsEnvelope, MatchesScanOracleOnSeededInlineRanges) {
  cu::Xoshiro256pp rng(20261017);
  for (int k = 0; k < 4; ++k) {
    const double a = 0.85 + 0.1 * rng.uniform01();
    const double hurst = 0.82 + 0.02 * rng.uniform01();
    const double weight = 0.6 + 0.2 * rng.uniform01();
    const std::vector<double> buffers = buffers_for(560.0, 1500);
    expect_matches_oracle(inline_model("geometric", a, 0, 0), 560.0, buffers);
    expect_matches_oracle(inline_model("lrd", 0, hurst, weight), 560.0,
                          buffers);
  }
}

TEST(CtsEnvelope, MatchesScanOracleOnNonMonotoneVarianceGrowth) {
  // r(1) = -0.6 makes V(2) = 0.8 sigma^2 < V(1): line 2 is steeper than
  // line 1 and must never enter the envelope.
  cf::ModelSpec model;
  model.name = "tabulated";
  model.mean = 500;
  model.variance = 5000;
  model.acf = std::make_shared<cc::TabulatedAcf>(
      std::vector<double>{1.0, -0.6, 0.3, -0.1, 0.25, 0.2, 0.1, 0.05});
  const cc::RateFunction rate(model.acf, model.mean, model.variance, 526.0);
  ASSERT_LT(rate.variance_growth().at(2), rate.variance_growth().at(1));
  for (const double c : {503.0, 526.0, 600.0}) {
    std::vector<double> buffers = buffers_for(c, 1500);
    buffers.insert(buffers.begin(), 0.0);
    expect_matches_oracle(model, c, buffers);
  }
}

TEST(CtsEnvelope, MatchesScanOracleWhenTheHorizonMustGrow) {
  // A triangular ACF (a moving sum of 10^5 i.i.d. frames) keeps V(m) near
  // m^2 sigma^2 for thousands of lags, so m* lies past a quarter of the
  // initial horizon for small and moderate buffers and the horizon must
  // grow.
  std::vector<double> r(100000);
  for (std::size_t k = 0; k < r.size(); ++k) {
    r[k] = 1.0 - static_cast<double>(k) / 100000.0;
  }
  cf::ModelSpec model;
  model.name = "triangle";
  model.mean = 500;
  model.variance = 5000;
  model.acf = std::make_shared<cc::TabulatedAcf>(r);
  std::vector<double> buffers = buffers_for(526.0, 300);
  buffers.insert(buffers.begin(), 0.0);
  expect_matches_oracle(model, 526.0, buffers);
  const cc::RateFunction rate(model.acf, model.mean, model.variance, 526.0);
  EXPECT_GT(4 * rate.evaluate(1.0).critical_m, cc::RateFunction::kMinScan);
}

TEST(CtsEnvelope, MatchesScanOracleAtNearTies) {
  // White noise: lines m and m + 1 cross at b = d sqrt(m (m + 1)), where
  // the two objectives agree to rounding; probe a few ulps either side.
  const cf::ModelSpec model = cf::model_from_id("white");
  const double drift = 526.0 - model.mean;
  std::vector<double> buffers;
  for (std::size_t m = 1; m <= 400; ++m) {
    double b = drift * std::sqrt(static_cast<double>(m * (m + 1)));
    for (int k = 0; k < 3; ++k) b = std::nextafter(b, 0.0);
    for (int k = 0; k < 7; ++k) {
      buffers.push_back(b);
      b = std::nextafter(b, 1e300);
    }
  }
  expect_matches_oracle(model, 526.0, buffers);
}

TEST(CtsEnvelope, ZeroBufferCtsIsOne) {
  for (const char* id : {"za:0.9", "l", "ar1:0.975", "mginf:1.4"}) {
    const cf::ModelSpec model = cf::model_from_id(id);
    const cc::RateFunction rate(model.acf, model.mean, model.variance, 526.0);
    // Also after the envelope has grown for a large buffer.
    EXPECT_EQ(rate.evaluate(0.0).critical_m, 1u) << id;
    (void)rate.evaluate(5000.0);
    EXPECT_EQ(rate.evaluate(0.0).critical_m, 1u) << id;
  }
}

TEST(CtsEnvelope, ShuffledQueryOrderMatchesAscendingOrder) {
  const std::vector<double> ascending = buffers_for(526.0, 600);
  std::vector<double> shuffled = ascending;
  cu::Xoshiro256pp rng(7);
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng() % (i + 1)]);
  }
  for (const char* id : {"za:0.9", "farima:0.3", "dar:0.9:3", "l"}) {
    const cf::ModelSpec model = cf::model_from_id(id);
    const cc::RateFunction up(model.acf, model.mean, model.variance, 526.0);
    const cc::RateFunction mixed(model.acf, model.mean, model.variance, 526.0);
    std::vector<cc::RateResult> want;
    for (const double b : ascending) want.push_back(up.evaluate(b));
    for (const double b : shuffled) {
      const std::size_t i = static_cast<std::size_t>(
          std::lower_bound(ascending.begin(), ascending.end(), b) -
          ascending.begin());
      const cc::RateResult got = mixed.evaluate(b);
      EXPECT_EQ(got.critical_m, want[i].critical_m) << id << " b=" << b;
      EXPECT_TRUE(same_bits(got.rate, want[i].rate)) << id << " b=" << b;
    }
    // Both orders end with the same V(m) table.
    EXPECT_EQ(mixed.variance_growth().table_size(),
              up.variance_growth().table_size())
        << id;
  }
}

TEST(CtsEnvelope, HugeBufferStillThrowsAtTheHorizonLimit) {
  const cf::ModelSpec model = cf::model_from_id("l");
  const cc::RateFunction rate(model.acf, model.mean, model.variance, 526.0);
  const cts::testing::ScanOracle oracle(model.acf, model.mean, model.variance,
                                        526.0);
  for (const double b : {1.0e7, 1.0e300}) {
    EXPECT_THROW(rate.evaluate(b), cu::NumericalError) << b;
    EXPECT_THROW(oracle.evaluate(b), cu::NumericalError) << b;
  }
  // The envelope keeps answering after a throw.
  EXPECT_EQ(rate.evaluate(0.0).critical_m, 1u);
}
