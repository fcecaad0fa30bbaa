// Bahadur-Rao and Large-N buffer-overflow asymptotics.
//
// Paper eq. (7): for N homogeneous Gaussian sources,
//
//   Psi(c, b, N) ~ exp( -N I(c,b) - (1/2) log(4 pi N I(c,b)) ),
//
// which refines the Courcoubetis-Weber "Large N" asymptotic
// Psi ~ exp(-N I).  Both are returned in log10 so wide-buffer sweeps
// (Fig. 7) cannot underflow.

#pragma once

#include <cstddef>

#include "cts/core/rate_function.hpp"

namespace cts::core {

/// One point of a BOP curve.
struct BopPoint {
  double buffer_per_source = 0.0;  ///< b (cells)
  double log10_bop = 0.0;          ///< log10 Psi(c, b, N)
  std::size_t critical_m = 1;      ///< the CTS at this buffer
  double rate = 0.0;               ///< I(c, b)
};

/// log10 of the Bahadur-Rao overflow probability for N sources at
/// per-source buffer b, given an already-constructed rate function.
/// Clamps at 0 (probability 1) for degenerate small-rate corners.
BopPoint br_log10_bop(const RateFunction& rate, double buffer_per_source,
                      std::size_t n_sources);

/// Same, but from an already-evaluated rate-function point: the BR
/// asymptotic is closed-form in (I, N), so a memoized RateResult turns a
/// CTS evaluation into O(1) work.  Bit-identical to the RateFunction overload
/// for the same (I, m*).
BopPoint br_log10_bop(const RateResult& rate_point, double buffer_per_source,
                      std::size_t n_sources);

}  // namespace cts::core
