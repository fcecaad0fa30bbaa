// Test oracle for the CTS argmin: a cold scalar scan over every lag, the
// reference the lower envelope of RateFunction::evaluate must reproduce
// bit for bit.
//
// A sequential running minimum of (b + m (c - mu))^2 / (2 V(m)) over
// m = 1, 2, ... under strict < (lowest m on ties), with the same horizon
// rule: the horizon starts at max(kMinScan, kScanMargin * LRD prediction)
// and is pushed to kScanMargin * m whenever the running minimum moves past
// a quarter of it; a horizon beyond kMaxScan throws util::NumericalError.
// It reads its own V(m) table, so it shares no state with the
// RateFunction it checks.

#pragma once

#include <algorithm>
#include <cmath>
#include <memory>

#include "cts/core/rate_function.hpp"
#include "cts/core/variance_growth.hpp"
#include "cts/util/error.hpp"

namespace cts::testing {

class ScanOracle {
 public:
  ScanOracle(std::shared_ptr<const core::AcfModel> acf, double mean,
             double variance, double bandwidth)
      : growth_(std::move(acf), variance), drift_(bandwidth - mean) {}

  core::RateResult evaluate(double b) const {
    using core::RateFunction;
    const double lrd_prediction = RateFunction::kWorstCaseHurst /
                                  (1.0 - RateFunction::kWorstCaseHurst) * b /
                                  drift_;
    const double wanted =
        std::max(static_cast<double>(RateFunction::kMinScan),
                 RateFunction::kScanMargin * lrd_prediction);
    if (!(wanted <= static_cast<double>(RateFunction::kMaxScan))) {
      throw util::NumericalError("ScanOracle: horizon exceeds kMaxScan");
    }
    std::size_t horizon = static_cast<std::size_t>(std::llround(wanted));
    growth_.ensure(horizon);
    core::RateResult best{objective(b, 1), 1};
    for (std::size_t m = 2; m <= horizon; ++m) {
      const double value = objective(b, m);
      if (!(value < best.rate)) continue;
      best = {value, m};
      const auto extended = static_cast<std::size_t>(
          RateFunction::kScanMargin * static_cast<double>(m));
      if (extended > RateFunction::kMaxScan) {
        throw util::NumericalError("ScanOracle: horizon exceeds kMaxScan");
      }
      if (extended > horizon) {
        horizon = extended;
        growth_.ensure(horizon);
      }
    }
    return best;
  }

 private:
  double objective(double b, std::size_t m) const {
    const double numerator = b + static_cast<double>(m) * drift_;
    return numerator * numerator * growth_.inv_table()[m];
  }

  core::VarianceGrowth growth_;
  double drift_;
};

}  // namespace cts::testing
