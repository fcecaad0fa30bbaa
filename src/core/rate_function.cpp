#include "cts/core/rate_function.hpp"

#include <algorithm>
#include <cmath>

#include "cts/obs/trace.hpp"
#include "cts/util/error.hpp"

namespace cts::core {

RateFunction::RateFunction(std::shared_ptr<const AcfModel> acf, double mean,
                           double variance, double bandwidth)
    : growth_(std::move(acf), variance), mean_(mean), bandwidth_(bandwidth) {
  util::require(bandwidth > mean,
                "RateFunction: bandwidth must exceed the mean (stability)");
}

namespace {

[[noreturn]] void throw_horizon_exceeded() {
  throw util::NumericalError(
      "RateFunction: CTS scan exceeded kMaxScan; the model may have "
      "H too close to 1 or a non-summable objective");
}

}  // namespace

void RateFunction::extend(std::size_t horizon) const {
  if (horizon <= lines_) return;
  growth_.ensure(horizon);
  // Most lines stay on the envelope: size it like the V(m) table, not one
  // reallocation per doubling from empty.
  if (horizon > envelope_.capacity()) {
    envelope_.reserve(std::max(horizon, 2 * envelope_.capacity()));
  }
  const double* inv2v = growth_.inv_table();
  const double drift = bandwidth_ - mean_;
  struct Line {
    double slope;
    double icpt;
  };
  auto line = [&](std::size_t m) {
    const double slope = std::sqrt(inv2v[m]);
    return Line{slope, drift * static_cast<double>(m) * slope};
  };
  // The two highest envelope lines, valid while the envelope holds at
  // least one and two lines respectively.
  Line top{0.0, 0.0};
  Line below{0.0, 0.0};
  const std::size_t size = envelope_.size();
  if (size >= 1) top = line(envelope_[size - 1]);
  if (size >= 2) below = line(envelope_[size - 2]);
  for (std::size_t m = lines_ + 1; m <= horizon; ++m) {
    const Line next = line(m);
    // An earlier line with a slope no larger has a smaller intercept too,
    // so this line lies above it for every b >= 0.
    if (!envelope_.empty() && !(next.slope < top.slope)) continue;
    // Pop the top while the new line undercuts it everywhere it was lowest:
    // on [0, x) if it is the first line, else on [x_below, x) where
    // x_below is its crossing with the line below it.
    while (!envelope_.empty()) {
      if (next.icpt > top.icpt &&
          (envelope_.size() < 2 ||
           (next.icpt - top.icpt) * (below.slope - top.slope) >
               (top.icpt - below.icpt) * (top.slope - next.slope))) {
        break;
      }
      envelope_.pop_back();
      top = below;
      if (envelope_.size() >= 2) {
        below = line(envelope_[envelope_.size() - 2]);
      }
    }
    envelope_.push_back(static_cast<std::uint32_t>(m));
    below = top;
    top = next;
  }
  lines_ = horizon;
}

RateResult RateFunction::envelope_min(double b) const {
  const double* inv2v = growth_.inv_table();
  const double drift = bandwidth_ - mean_;
  auto objective = [&](std::size_t m) {
    const double numerator = b + static_cast<double>(m) * drift;
    return numerator * numerator * inv2v[m];
  };
  // Along the envelope the values at b fall to the envelope line and rise
  // after it.
  std::size_t lo = 0;
  std::size_t hi = envelope_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (objective(envelope_[mid + 1]) < objective(envelope_[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // The envelope comes from rounded square roots and the objective rounds
  // too, so near the minimum its values along the envelope need not be
  // exactly unimodal: check both neighbours as well.  Strict < keeps the
  // lowest m.
  const std::size_t first = lo > 0 ? lo - 1 : 0;
  const std::size_t last = std::min(lo + 1, envelope_.size() - 1);
  RateResult best{objective(envelope_[first]), envelope_[first]};
  for (std::size_t i = first + 1; i <= last; ++i) {
    const double value = objective(envelope_[i]);
    if (value < best.rate) best = {value, envelope_[i]};
  }
  return best;
}

RateResult RateFunction::evaluate(double buffer_per_source) const {
  CTS_TRACE_SPAN("rate_fn.evaluate");
  util::require(buffer_per_source >= 0.0,
                "RateFunction::evaluate: buffer must be >= 0");
  const double b = buffer_per_source;
  // Guaranteed-coverage horizon: the worst-case CTS scaling over all H < 1
  // handled in practice plus a generous multiplicative margin; with the
  // kScanMargin * m* rule below this cannot stop before the global integer
  // minimum for objectives whose tail is eventually increasing (true since
  // V(m) = o(m^2)).  Validated against kMaxScan in double precision before
  // any integer conversion: llround of a huge b/drift is undefined.
  const double lrd_prediction =
      kWorstCaseHurst / (1.0 - kWorstCaseHurst) * b / (bandwidth_ - mean_);
  const double wanted = std::max(static_cast<double>(kMinScan),
                                 kScanMargin * lrd_prediction);
  if (!(wanted <= static_cast<double>(kMaxScan))) throw_horizon_exceeded();
  extend(static_cast<std::size_t>(std::llround(wanted)));
  for (;;) {
    const RateResult best = envelope_min(b);
    // Push the horizon while the minimum sits in its outer part.
    const auto needed = static_cast<std::size_t>(
        kScanMargin * static_cast<double>(best.critical_m));
    if (needed > kMaxScan) throw_horizon_exceeded();
    if (needed <= lines_) return best;
    extend(needed);
  }
}

RateResult RateFunction::evaluate(double buffer_per_source,
                                  std::size_t) const {
  return evaluate(buffer_per_source);
}

double lrd_cts_slope(double hurst, double mean, double bandwidth) {
  util::require(hurst > 0.0 && hurst < 1.0, "lrd_cts_slope: H in (0,1)");
  util::require(bandwidth > mean, "lrd_cts_slope: bandwidth must exceed mean");
  return hurst / ((1.0 - hurst) * (bandwidth - mean));
}

double markov_cts_slope(double mean, double bandwidth) {
  util::require(bandwidth > mean,
                "markov_cts_slope: bandwidth must exceed mean");
  return 1.0 / (bandwidth - mean);
}

}  // namespace cts::core
