// Analytic autocorrelation models.
//
// The Critical Time Scale machinery needs only three ingredients of a
// source: mean mu, variance sigma^2, and the autocorrelation function
// r(k).  AcfModel abstracts r(k); concrete models cover every correlation
// structure used in the paper:
//
//   GeometricAcf     r(k) = a^k                      (DAR(1)/AR(1), SRD)
//   DarAcf           DAR(p) recursion                 (the S models)
//   ExactLrdAcf      r(k) = w (1/2) grad^2(k^{2H})    (FBNDP / FGN, LRD)
//   MixtureAcf       weighted sum of models           (V^v, Z^a, eq. 5)
//   WhiteAcf         r(k) = 0                         (i.i.d. reference)

#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace cts::core {

/// Autocorrelation function of a wide-sense-stationary frame process.
/// r(0) = 1 by definition; implementations define k >= 1.
class AcfModel {
 public:
  virtual ~AcfModel() = default;

  /// r(k) for lag k; must return 1 for k = 0.
  virtual double at(std::size_t k) const = 0;

  virtual std::string name() const = 0;
};

/// r(k) = a^k.  The ACF of DAR(1) (a = rho) and of Gaussian AR(1) (a = phi).
class GeometricAcf final : public AcfModel {
 public:
  explicit GeometricAcf(double a);
  double at(std::size_t k) const override;
  std::string name() const override;

 private:
  double a_;
};

/// DAR(p) autocorrelation via the Yule-Walker-shaped recursion, cached and
/// grown on demand.
class DarAcf final : public AcfModel {
 public:
  DarAcf(double rho, std::vector<double> lag_probs);
  double at(std::size_t k) const override;
  std::string name() const override;

 private:
  void extend(std::size_t k) const;

  double rho_;
  std::vector<double> lag_probs_;
  mutable std::vector<double> cache_;  // cache_[k] = r(k)
};

/// Exact-LRD ACF of the paper's eq. (2): r(k) = w * (1/2) grad^2(k^{2H}).
/// w = 1 gives FGN; w = Ts^a/(Ts^a + T0^a) gives the FBNDP frame process
/// (with 2H = alpha + 1).
class ExactLrdAcf final : public AcfModel {
 public:
  ExactLrdAcf(double hurst, double weight);
  double at(std::size_t k) const override;
  std::string name() const override;

  double hurst() const noexcept { return hurst_; }
  double weight() const noexcept { return weight_; }

 private:
  double hurst_;
  double weight_;
};

/// Convex mixture of ACFs: r(k) = sum_i w_i r_i(k), weights summing to 1.
/// This is eq. (5): the ACF of a sum of independent processes is the
/// variance-weighted mixture of the component ACFs.
class MixtureAcf final : public AcfModel {
 public:
  MixtureAcf(std::vector<std::shared_ptr<const AcfModel>> components,
             std::vector<double> weights, std::string name = "mixture");
  double at(std::size_t k) const override;
  std::string name() const override { return name_; }

 private:
  std::vector<std::shared_ptr<const AcfModel>> components_;
  std::vector<double> weights_;
  std::string name_;
};

/// r(k) = 0 for k >= 1 (i.i.d. frames).
class WhiteAcf final : public AcfModel {
 public:
  double at(std::size_t k) const override { return k == 0 ? 1.0 : 0.0; }
  std::string name() const override { return "white"; }
};

/// F-ARIMA(0, d, 0) autocorrelation (fractionally integrated noise), the
/// paper's example of an ASYMPTOTIC LRD process (Section 2):
///   r(k) = r(k-1) * (k - 1 + d) / (k - d),  r(0) = 1,  d = H - 1/2.
/// Unlike the exact-LRD family, the power law only holds in the tail.
/// at() grows a lag cache on demand, so one instance must not be read
/// from several threads at once.
class FarimaAcf final : public AcfModel {
 public:
  /// `d` in (0, 1/2); H = d + 1/2.
  explicit FarimaAcf(double d);
  double at(std::size_t k) const override;
  std::string name() const override;

  double d() const noexcept { return d_; }
  double hurst() const noexcept { return d_ + 0.5; }

 private:
  void extend(std::size_t k) const;

  double d_;
  mutable std::vector<double> cache_{1.0};
};

/// ACF given by an explicit table r(0..K); lags beyond the table return 0.
/// Useful for plugging empirical ACFs straight into the CTS machinery.
class TabulatedAcf final : public AcfModel {
 public:
  explicit TabulatedAcf(std::vector<double> values);
  double at(std::size_t k) const override;
  std::string name() const override { return "tabulated"; }

 private:
  std::vector<double> values_;
};

}  // namespace cts::core
