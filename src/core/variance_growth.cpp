#include "cts/core/variance_growth.hpp"

#include <algorithm>
#include <cmath>

#include "cts/util/error.hpp"

namespace cts::core {

VarianceGrowth::VarianceGrowth(std::shared_ptr<const AcfModel> acf,
                               double variance)
    : acf_(std::move(acf)), variance_(variance) {
  util::require(acf_ != nullptr, "VarianceGrowth: acf required");
  util::require(variance > 0.0, "VarianceGrowth: variance must be > 0");
}

void VarianceGrowth::ensure(std::size_t m) const {
  if (v_.size() > m) return;
  // Geometric capacity growth: a sweep that asks for a slightly longer
  // horizon at every buffer point must not reallocate and copy both tables
  // each time.  Only the lags up to m are materialised (table_size()).
  if (m + 1 > v_.capacity()) {
    const std::size_t capacity = std::max(m + 1, 2 * v_.capacity());
    v_.reserve(capacity);
    inv2v_.reserve(capacity);
  }
  while (v_.size() <= m) {
    const std::size_t i = v_.size();  // next lag to absorb
    const double r = acf_->at(i);
    s1_ += r;
    s2_ += static_cast<double>(i) * r;
    // sum_{j=1..i} (i - j) r(j) = i S1(i) - S2(i); the j = i term is zero
    // so including it in the running sums is harmless.
    const double id = static_cast<double>(i);
    const double weighted = id * s1_ - s2_;
    const double v = variance_ * (id + 2.0 * weighted);
    v_.push_back(v);
    inv2v_.push_back(1.0 / (2.0 * v));
  }
}

double VarianceGrowth::at(std::size_t m) const {
  util::require(m >= 1, "VarianceGrowth::at: m must be >= 1");
  ensure(m);
  return v_[m];
}

double VarianceGrowth::normalized(std::size_t m) const {
  return at(m) / (variance_ * static_cast<double>(m));
}

double lrd_variance_growth_approx(double variance, double weight, double hurst,
                                  std::size_t m) {
  util::require(hurst > 0.5 && hurst < 1.0,
                "lrd_variance_growth_approx: H must be in (1/2,1)");
  return variance * weight *
         std::pow(static_cast<double>(m), 2.0 * hurst);
}

}  // namespace cts::core
