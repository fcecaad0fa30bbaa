// The Bahadur-Rao rate function and the Critical Time Scale (CTS).
//
// For N homogeneous Gaussian sources with per-source buffer b (cells) and
// bandwidth c (cells/frame), the rate function is (paper eq. 8):
//
//   I(c, b) = inf_{m >= 1} [b + m(c - mu)]^2 / (2 V(m)),
//
// and the minimiser m*_b is the Critical Time Scale: the number of frame
// correlations that determine the overflow probability.  Correlations at
// lags beyond m*_b do not influence I -- which is the paper's central
// object.  The paper proves m* < infinity whenever V(m) grows slower than
// m^2 (true for SRD and for LRD with H < 1) and that m*_0 = 1.
//
// The square root of each term is a line in b,
//
//   l_m(b) = s_m b + (c - mu) m s_m,   s_m = sqrt(1 / (2 V(m))),
//
// so I(c, .) is the square of the lower envelope of those lines and m*_b
// is the line on the envelope at b.  The envelope is ordered by slope,
// which makes "m*_b is non-decreasing in b" hold by construction.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cts/core/variance_growth.hpp"

namespace cts::core {

/// Result of one rate-function evaluation.
struct RateResult {
  double rate = 0.0;            ///< I(c, b)
  std::size_t critical_m = 1;   ///< m*_b, the Critical Time Scale
};

/// Evaluator of I(c, b) for one source model (mu, sigma^2, r(.)).
///
/// The minimisation over m runs over the lags up to a horizon set by a
/// stopping rule: at least max(kMinScan, kScanMargin * the LRD scaling
/// prediction H b / ((1-H)(c-mu)) at H = kWorstCaseHurst), and at least
/// kScanMargin * m*_b, so slowly-varying objectives near H -> 1 cannot stop
/// the search early.  The lines of the lags up to the horizon form a lower
/// envelope for b >= 0 that the object keeps next to its V(m) table and
/// extends lazily when a query's horizon asks for more lags.  A line whose
/// slope is not a new strict minimum is dominated for b >= 0 and never
/// enters, so a non-monotone V(m) needs no sort.
///
/// Each query binary-searches the envelope, then recomputes the exact
/// objective (b + m (c - mu))^2 / (2 V(m)) at the envelope line and its two
/// neighbours; the lowest m wins ties.  Answers therefore do not depend on
/// the order of queries.  Not thread-safe: the table and the envelope grow
/// inside const calls.
class RateFunction {
 public:
  /// `acf` must describe a process with variance `variance` and mean `mean`.
  /// `bandwidth` is c (cells/frame) and must exceed `mean` (stability).
  RateFunction(std::shared_ptr<const AcfModel> acf, double mean,
               double variance, double bandwidth);

  /// I(c, b) and m* for per-source buffer b >= 0 (cells).  Throws
  /// util::NumericalError when the required horizon (including the
  /// initial LRD-scaling prediction, not just the kScanMargin * m* rule)
  /// would exceed kMaxScan.
  RateResult evaluate(double buffer_per_source) const;

  /// Returns exactly evaluate(buffer_per_source); the second argument is
  /// ignored.  Kept only for perfbench/src/analytic_sweep.cpp, its only
  /// caller.
  RateResult evaluate(double buffer_per_source, std::size_t) const;

  double mean() const noexcept { return mean_; }
  double bandwidth() const noexcept { return bandwidth_; }
  const VarianceGrowth& variance_growth() const noexcept { return growth_; }

  /// Upper bound on the horizon; evaluations requiring more throw
  /// util::NumericalError instead of silently returning a non-minimum.
  static constexpr std::size_t kMaxScan = 1u << 24;
  /// Smallest horizon of any evaluation.
  static constexpr std::size_t kMinScan = 512;
  /// Horizon multiple past both the LRD prediction and m*_b.
  static constexpr double kScanMargin = 4.0;
  /// H of the LRD scaling prediction that seeds the horizon.
  static constexpr double kWorstCaseHurst = 0.98;

 private:
  /// Materialises V(m) up to `horizon` and adds lines lines_+1..horizon to
  /// the envelope.
  void extend(std::size_t horizon) const;
  /// Lowest-m minimiser of the exact objective among the envelope line at
  /// b and its two neighbours.
  RateResult envelope_min(double b) const;

  VarianceGrowth growth_;
  double mean_;
  double bandwidth_;
  // Envelope lines as lags m, increasing in m and decreasing in slope;
  // envelope_[0] is the line lowest at b = 0.  lines_ is the number of
  // lags absorbed so far.
  mutable std::vector<std::uint32_t> envelope_;
  mutable std::size_t lines_ = 0;
};

/// Asymptotic CTS slope for a Gaussian exact-LRD source (paper appendix):
///   m*_b ~ [H / ((1-H)(c-mu))] * b.
double lrd_cts_slope(double hurst, double mean, double bandwidth);

/// Asymptotic CTS slope for a Gaussian AR(1)/Markov source
/// (Courcoubetis & Weber):  m*_b ~ b / (c - mu).
double markov_cts_slope(double mean, double bandwidth);

}  // namespace cts::core
