#include "cts/core/br_asymptotic.hpp"

#include <algorithm>
#include <cmath>

#include "cts/util/error.hpp"
#include "cts/util/math.hpp"

namespace cts::core {

BopPoint br_log10_bop(const RateFunction& rate, double buffer_per_source,
                      std::size_t n_sources) {
  return br_log10_bop(rate.evaluate(buffer_per_source), buffer_per_source,
                      n_sources);
}

BopPoint br_log10_bop(const RateResult& r, double buffer_per_source,
                      std::size_t n_sources) {
  util::require(n_sources >= 1, "br_log10_bop: need at least one source");
  const double n = static_cast<double>(n_sources);
  const double exponent_nats = n * r.rate;
  // ln Psi = -N I - (1/2) ln(4 pi N I).  The refinement term is only
  // meaningful when N I is bounded away from zero; at the b -> 0, c -> mu
  // corner the raw formula can cross above zero, so clamp at probability 1.
  double log_psi = -exponent_nats;
  if (exponent_nats > 0.0) {
    log_psi -= 0.5 * std::log(4.0 * util::kPi * exponent_nats);
  }
  BopPoint point;
  point.buffer_per_source = buffer_per_source;
  point.rate = r.rate;
  point.critical_m = r.critical_m;
  point.log10_bop = std::min(log_psi / std::log(10.0), 0.0);
  return point;
}

}  // namespace cts::core
