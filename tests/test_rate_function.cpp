// Unit tests for the rate function I(c,b) and the Critical Time Scale.

#include "cts/core/rate_function.hpp"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "cts/util/error.hpp"

namespace cc = cts::core;
namespace cu = cts::util;

namespace {

cc::RateFunction white_rate(double mean, double sigma2, double c) {
  return cc::RateFunction(std::make_shared<cc::WhiteAcf>(), mean, sigma2, c);
}

}  // namespace

TEST(RateFunction, RejectsUnstableBandwidth) {
  EXPECT_THROW(white_rate(500.0, 5000.0, 500.0), cu::InvalidArgument);
  EXPECT_THROW(white_rate(500.0, 5000.0, 499.0), cu::InvalidArgument);
}

TEST(RateFunction, ZeroBufferCtsIsOne) {
  // The paper: m*_0 = 1 -- correlations are irrelevant at zero buffer.
  for (const auto& acf : {std::shared_ptr<const cc::AcfModel>(
                              std::make_shared<cc::WhiteAcf>()),
                          std::shared_ptr<const cc::AcfModel>(
                              std::make_shared<cc::GeometricAcf>(0.95)),
                          std::shared_ptr<const cc::AcfModel>(
                              std::make_shared<cc::ExactLrdAcf>(0.9, 0.9))}) {
    const cc::RateFunction rate(acf, 500.0, 5000.0, 526.0);
    EXPECT_EQ(rate.evaluate(0.0).critical_m, 1u) << acf->name();
  }
}

TEST(RateFunction, ZeroBufferRateIsMarginalChernoff) {
  // At b = 0 and m = 1: I = (c - mu)^2 / (2 sigma^2), the Gaussian
  // Chernoff exponent of a single frame.
  const cc::RateFunction rate = white_rate(500.0, 5000.0, 538.0);
  const cc::RateResult r = rate.evaluate(0.0);
  EXPECT_NEAR(r.rate, 38.0 * 38.0 / (2.0 * 5000.0), 1e-12);
}

TEST(RateFunction, WhiteNoiseCtsScalesAsBufferOverDrift) {
  // For V(m) = sigma^2 m the continuous minimiser is m = b/(c - mu).
  const cc::RateFunction rate = white_rate(500.0, 5000.0, 538.0);
  for (const double b : {38.0, 380.0, 3800.0}) {
    const auto m = rate.evaluate(b).critical_m;
    const double predicted = b / 38.0;
    EXPECT_NEAR(static_cast<double>(m), predicted,
                std::max(1.0, 0.02 * predicted))
        << "b=" << b;
  }
}

TEST(RateFunction, WhiteNoiseRateClosedForm) {
  // With the continuous minimiser, I = 2 b (c-mu) / (2 sigma^2) ... derive:
  // f(m) = (b + dm)^2/(2 s m); at m = b/d: (2b)^2/(2 s b/d) = 2 b d / s.
  const double d = 38.0;
  const double s = 5000.0;
  const cc::RateFunction rate = white_rate(500.0, s, 500.0 + d);
  const double b = 3800.0;  // large so the integer minimiser is accurate
  EXPECT_NEAR(rate.evaluate(b).rate, 2.0 * b * d / s,
              0.001 * 2.0 * b * d / s);
}

TEST(RateFunction, CtsIsNonDecreasingInBuffer) {
  for (const auto& acf : {std::shared_ptr<const cc::AcfModel>(
                              std::make_shared<cc::GeometricAcf>(0.975)),
                          std::shared_ptr<const cc::AcfModel>(
                              std::make_shared<cc::ExactLrdAcf>(0.9, 0.9))}) {
    const cc::RateFunction rate(acf, 500.0, 5000.0, 526.0);
    std::size_t prev = 0;
    for (double b = 0.0; b <= 2000.0; b += 100.0) {
      const auto m = rate.evaluate(b).critical_m;
      EXPECT_GE(m, prev) << acf->name() << " b=" << b;
      prev = m;
    }
  }
}

TEST(RateFunction, LrdCtsMatchesAppendixScaling) {
  // m* ~ H b / ((1-H)(c - mu)) for exact-LRD Gaussian sources.
  const double h = 0.9;
  const cc::RateFunction rate(std::make_shared<cc::ExactLrdAcf>(h, 0.9),
                              500.0, 5000.0, 538.0);
  const double b = 4000.0;
  const double predicted = cc::lrd_cts_slope(h, 500.0, 538.0) * b;
  const auto m = rate.evaluate(b).critical_m;
  EXPECT_NEAR(static_cast<double>(m), predicted, 0.06 * predicted);
}

TEST(RateFunction, StrongerShortCorrelationsGiveLargerCts) {
  // Fig. 4-b: higher a yields larger m* at the same buffer.
  const double b = 500.0;
  std::size_t prev = 0;
  for (const double a : {0.7, 0.9, 0.975}) {
    const cc::RateFunction rate(std::make_shared<cc::GeometricAcf>(a), 500.0,
                                5000.0, 526.0);
    const auto m = rate.evaluate(b).critical_m;
    EXPECT_GT(m, prev) << "a=" << a;
    prev = m;
  }
}

TEST(RateFunction, RateDecreasesWithCorrelation) {
  // More correlation -> larger V(m) -> smaller I -> higher loss.
  const double b = 500.0;
  const cc::RateFunction weak(std::make_shared<cc::GeometricAcf>(0.3), 500.0,
                              5000.0, 538.0);
  const cc::RateFunction strong(std::make_shared<cc::GeometricAcf>(0.95),
                                500.0, 5000.0, 538.0);
  EXPECT_GT(weak.evaluate(b).rate, strong.evaluate(b).rate);
}

TEST(RateFunction, RateIncreasesWithBuffer) {
  const cc::RateFunction rate(std::make_shared<cc::GeometricAcf>(0.9), 500.0,
                              5000.0, 538.0);
  double prev = -1.0;
  for (double b = 0.0; b <= 3000.0; b += 300.0) {
    const double i = rate.evaluate(b).rate;
    EXPECT_GT(i, prev) << "b=" << b;
    prev = i;
  }
}

TEST(RateFunction, HugeBufferThrowsInsteadOfUnclampedScan) {
  // Regression: the INITIAL horizon (the LRD scaling prediction) was never
  // validated against kMaxScan, and llround of a huge double is undefined
  // behaviour.  A buffer large enough that the guaranteed-coverage horizon
  // cannot fit in the scan bound must throw the same NumericalError the
  // improvement-extension path throws.
  const cc::RateFunction rate = white_rate(500.0, 5000.0, 501.0);
  EXPECT_THROW(rate.evaluate(1.0e7), cu::NumericalError);
  EXPECT_THROW(rate.evaluate(1.0e300), cu::NumericalError);  // llround UB
  // Just inside the bound still evaluates (horizon = 4 * 49 * b / drift).
  EXPECT_NO_THROW(rate.evaluate(50000.0));
}

TEST(RateFunction, RejectsNegativeBuffer) {
  const cc::RateFunction rate = white_rate(500.0, 5000.0, 538.0);
  EXPECT_THROW(rate.evaluate(-1.0), cu::InvalidArgument);
}

TEST(CtsSlopes, ClosedForms) {
  EXPECT_NEAR(cc::markov_cts_slope(500.0, 538.0), 1.0 / 38.0, 1e-15);
  EXPECT_NEAR(cc::lrd_cts_slope(0.9, 500.0, 538.0), 9.0 / 38.0, 1e-12);
  EXPECT_THROW(cc::markov_cts_slope(538.0, 500.0), cu::InvalidArgument);
  EXPECT_THROW(cc::lrd_cts_slope(1.0, 500.0, 538.0), cu::InvalidArgument);
}
