#include "cts/fit/model_zoo.hpp"

#include <cmath>
#include <cstdio>

#include "cts/fit/fbndp_calibration.hpp"
#include "cts/fit/tail_fit.hpp"
#include "cts/fit/vv_calibration.hpp"
#include "cts/proc/ar1.hpp"
#include "cts/proc/dar.hpp"
#include "cts/proc/fbndp.hpp"
#include "cts/proc/gaussian_acf_source.hpp"
#include "cts/proc/marginal.hpp"
#include "cts/proc/mginf.hpp"
#include "cts/proc/superposition.hpp"
#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"
#include "cts/util/rng.hpp"

namespace cts::fit {

namespace {

/// Compact number formatting for model names ("0.67", "0.975").
std::string util_name_number(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", x);
  return buf;
}

/// Moments of the FBNDP component of a mixture with variance ratio v:
/// sigma_X^2 = v/(v+1) * sigma^2, and mu_X chosen to keep the index of
/// dispersion sigma_X^2/mu_X equal to the total sigma^2/mu -- the paper's
/// convention, which makes T_0 identical across the V^v family (3.48 ms).
struct MixtureSplit {
  double mean_x = 0.0;
  double var_x = 0.0;
  double mean_y = 0.0;
  double var_y = 0.0;
};

MixtureSplit split_moments(double v, const PaperConstants& k) {
  MixtureSplit s;
  s.var_x = k.variance * v / (v + 1.0);
  const double dispersion = k.variance / k.mean;  // 10 for the paper values
  s.mean_x = s.var_x / dispersion;
  s.mean_y = k.mean - s.mean_x;
  s.var_y = k.variance - s.var_x;
  util::require(s.mean_y > 0.0 && s.var_y > 0.0,
                "split_moments: infeasible variance ratio v");
  return s;
}

/// Builds the analytic mixture ACF of eq. (5).
std::shared_ptr<const core::AcfModel> mixture_acf(double v, double alpha,
                                                  double weight, double a,
                                                  const std::string& name) {
  auto lrd = std::make_shared<core::ExactLrdAcf>((alpha + 1.0) / 2.0, weight);
  auto geo = std::make_shared<core::GeometricAcf>(a);
  std::vector<std::shared_ptr<const core::AcfModel>> parts{lrd, geo};
  std::vector<double> weights{v / (v + 1.0), 1.0 / (v + 1.0)};
  return std::make_shared<core::MixtureAcf>(std::move(parts),
                                            std::move(weights), name);
}

/// Builds the simulation factory for an FBNDP + DAR(1) mixture.
std::function<std::unique_ptr<proc::FrameSource>(std::uint64_t)>
mixture_factory(const proc::FbndpParams& fbndp, const proc::DarParams& dar,
                std::string name) {
  return [fbndp, dar, name = std::move(name)](std::uint64_t seed) {
    util::SplitMix64 seeder(seed);
    std::vector<std::unique_ptr<proc::FrameSource>> parts;
    parts.push_back(std::make_unique<proc::FbndpSource>(fbndp, seeder.next()));
    parts.push_back(std::make_unique<proc::DarSource>(dar, seeder.next()));
    return std::make_unique<proc::SuperposedSource>(std::move(parts), name);
  };
}

/// DAR(1) coefficient for a V^v member: pins the mixture first lag to the
/// v = 1 anchor row with a = anchor_a.
double vv_dar_coefficient(double v, const PaperConstants& k) {
  const double weight = 1.0 - k.mean / k.variance;  // = 1 - mu_X/sigma_X^2
  const double rx1 = fbndp_first_lag(weight, k.alpha_v);
  const double anchor_r1 = 0.5 * rx1 + 0.5 * k.anchor_a;  // v = 1 anchor
  return calibrate_dar1_coefficient(v, rx1, anchor_r1);
}

}  // namespace

ModelSpec make_vv(double v, const PaperConstants& constants) {
  util::require(v > 0.0, "make_vv: v must be > 0");
  const MixtureSplit split = split_moments(v, constants);
  const double weight = 1.0 - split.mean_x / split.var_x;
  const double a = vv_dar_coefficient(v, constants);

  FbndpTarget target;
  target.mean = split.mean_x;
  target.variance = split.var_x;
  target.alpha = constants.alpha_v;
  target.M = constants.M_mixture;
  target.Ts = constants.Ts;
  const proc::FbndpParams fbndp = calibrate_fbndp(target);

  proc::DarParams dar;
  dar.rho = a;
  dar.lag_probs = {1.0};
  dar.mean = split.mean_y;
  dar.variance = split.var_y;

  ModelSpec spec;
  spec.name = "V^" + util_name_number(v);
  spec.mean = constants.mean;
  spec.variance = constants.variance;
  spec.acf = mixture_acf(v, constants.alpha_v, weight, a, spec.name);
  spec.make_source = mixture_factory(fbndp, dar, spec.name);
  return spec;
}

ModelSpec make_za(double a, const PaperConstants& constants) {
  util::require(a >= 0.0 && a < 1.0, "make_za: a must be in [0,1)");
  const double v = 1.0;
  const MixtureSplit split = split_moments(v, constants);
  const double weight = 1.0 - split.mean_x / split.var_x;

  FbndpTarget target;
  target.mean = split.mean_x;
  target.variance = split.var_x;
  target.alpha = constants.alpha_z;
  target.M = constants.M_mixture;
  target.Ts = constants.Ts;
  const proc::FbndpParams fbndp = calibrate_fbndp(target);

  proc::DarParams dar;
  dar.rho = a;
  dar.lag_probs = {1.0};
  dar.mean = split.mean_y;
  dar.variance = split.var_y;

  ModelSpec spec;
  spec.name = "Z^" + util_name_number(a);
  spec.mean = constants.mean;
  spec.variance = constants.variance;
  spec.acf = mixture_acf(v, constants.alpha_z, weight, a, spec.name);
  spec.make_source = mixture_factory(fbndp, dar, spec.name);
  return spec;
}

ModelSpec make_dar_matched_to_za(double a, std::size_t p,
                                 const PaperConstants& constants) {
  util::require(p >= 1, "make_dar_matched_to_za: p must be >= 1");
  const ModelSpec za = make_za(a, constants);
  std::vector<double> targets(p);
  for (std::size_t k = 1; k <= p; ++k) targets[k - 1] = za.acf->at(k);
  const proc::DarParams dar =
      fit_dar_params(targets, constants.mean, constants.variance);

  ModelSpec spec;
  spec.name = "DAR(" + std::to_string(p) + ")~" + za.name;
  spec.mean = constants.mean;
  spec.variance = constants.variance;
  spec.acf = std::make_shared<core::DarAcf>(dar.rho, dar.lag_probs);
  spec.make_source = [dar, name = spec.name](std::uint64_t seed)
      -> std::unique_ptr<proc::FrameSource> {
    return std::make_unique<proc::DarSource>(dar, seed);
  };
  return spec;
}

ModelSpec make_l(const PaperConstants& constants) {
  // Fit alpha to the ACF tail of Z^a with a = 0.9 (geometric part is
  // ~1e-5 at lag 100, so the tail is the clean FBNDP power law).
  const ModelSpec za = make_za(0.9, constants);
  const double weight = 1.0 - constants.mean / constants.variance;
  const TailFit tail = fit_lrd_tail(
      [&](std::size_t k) { return za.acf->at(k); }, weight, 100, 1000);

  FbndpTarget target;
  target.mean = constants.mean;
  target.variance = constants.variance;
  target.alpha = tail.alpha;
  target.M = constants.M_pure;
  target.Ts = constants.Ts;
  const proc::FbndpParams fbndp = calibrate_fbndp(target);

  ModelSpec spec;
  spec.name = "L";
  spec.mean = constants.mean;
  spec.variance = constants.variance;
  spec.acf = std::make_shared<core::ExactLrdAcf>(tail.hurst, weight);
  spec.make_source = [fbndp](std::uint64_t seed)
      -> std::unique_ptr<proc::FrameSource> {
    return std::make_unique<proc::FbndpSource>(fbndp, seed);
  };
  return spec;
}

ModelSpec make_white(const PaperConstants& constants) {
  ModelSpec spec;
  spec.name = "white";
  spec.mean = constants.mean;
  spec.variance = constants.variance;
  spec.acf = std::make_shared<core::WhiteAcf>();
  proc::Ar1Params params;
  params.phi = 0.0;
  params.mean = constants.mean;
  params.variance = constants.variance;
  spec.make_source = [params](std::uint64_t seed)
      -> std::unique_ptr<proc::FrameSource> {
    return std::make_unique<proc::Ar1Source>(params, seed);
  };
  return spec;
}

ModelSpec make_ar1(double phi, const PaperConstants& constants) {
  ModelSpec spec;
  spec.name = "AR1(" + util_name_number(phi) + ")";
  spec.mean = constants.mean;
  spec.variance = constants.variance;
  spec.acf = std::make_shared<core::GeometricAcf>(phi);
  proc::Ar1Params params;
  params.phi = phi;
  params.mean = constants.mean;
  params.variance = constants.variance;
  spec.make_source = [params](std::uint64_t seed)
      -> std::unique_ptr<proc::FrameSource> {
    return std::make_unique<proc::Ar1Source>(params, seed);
  };
  return spec;
}

ModelSpec make_farima(double d, const PaperConstants& constants) {
  ModelSpec spec;
  spec.name = "FARIMA(d=" + util_name_number(d) + ")";
  spec.mean = constants.mean;
  spec.variance = constants.variance;
  spec.acf = std::make_shared<core::FarimaAcf>(d);
  const double mean = constants.mean;
  const double variance = constants.variance;
  // Each source gets its own ACF: FarimaAcf grows its lag cache on demand,
  // so one instance shared by sources built on replication threads races.
  spec.make_source = [d, mean, variance](std::uint64_t seed)
      -> std::unique_ptr<proc::FrameSource> {
    return std::make_unique<proc::GaussianAcfDaviesHarte>(
        std::make_shared<core::FarimaAcf>(d), mean, variance, 1u << 13, seed);
  };
  return spec;
}

ModelSpec make_mginf(double beta, const PaperConstants& constants) {
  const proc::MgInfParams params =
      proc::MgInfParams::for_moments(constants.mean, constants.variance,
                                     beta);
  ModelSpec spec;
  spec.name = "MGinf(beta=" + util_name_number(beta) + ")";
  spec.mean = constants.mean;
  spec.variance = constants.variance;
  spec.acf = std::make_shared<proc::MgInfAcf>(params);
  spec.make_source = [params](std::uint64_t seed)
      -> std::unique_ptr<proc::FrameSource> {
    return std::make_unique<proc::MgInfSource>(params, seed);
  };
  return spec;
}

ModelSpec make_dar_negbinom(double a, std::size_t p,
                            const PaperConstants& constants) {
  ModelSpec spec = make_dar_matched_to_za(a, p, constants);
  spec.name += "/negbinom";
  const ModelSpec za = make_za(a, constants);
  std::vector<double> targets(p);
  for (std::size_t k = 1; k <= p; ++k) targets[k - 1] = za.acf->at(k);
  const proc::DarParams dar =
      fit_dar_params(targets, constants.mean, constants.variance);
  auto marginal = std::make_shared<proc::NegativeBinomialMarginal>(
      constants.mean, constants.variance);
  spec.make_source = [dar, marginal](std::uint64_t seed)
      -> std::unique_ptr<proc::FrameSource> {
    return std::make_unique<proc::DarSource>(dar, marginal, seed);
  };
  return spec;
}

MixtureReport report_vv(double v, const PaperConstants& constants) {
  const MixtureSplit split = split_moments(v, constants);
  FbndpTarget target;
  target.mean = split.mean_x;
  target.variance = split.var_x;
  target.alpha = constants.alpha_v;
  target.M = constants.M_mixture;
  target.Ts = constants.Ts;
  MixtureReport report;
  report.v = v;
  report.alpha = constants.alpha_v;
  report.a = vv_dar_coefficient(v, constants);
  report.lambda = split.mean_x / constants.Ts;
  report.t0_msec = implied_fractal_onset_time(target) * 1000.0;
  report.M = constants.M_mixture;
  return report;
}

MixtureReport report_za(double a, const PaperConstants& constants) {
  const MixtureSplit split = split_moments(1.0, constants);
  FbndpTarget target;
  target.mean = split.mean_x;
  target.variance = split.var_x;
  target.alpha = constants.alpha_z;
  target.M = constants.M_mixture;
  target.Ts = constants.Ts;
  MixtureReport report;
  report.v = 1.0;
  report.alpha = constants.alpha_z;
  report.a = a;
  report.lambda = split.mean_x / constants.Ts;
  report.t0_msec = implied_fractal_onset_time(target) * 1000.0;
  report.M = constants.M_mixture;
  return report;
}

MixtureReport report_l(const PaperConstants& constants) {
  const ModelSpec za = make_za(0.9, constants);
  const double weight = 1.0 - constants.mean / constants.variance;
  const TailFit tail = fit_lrd_tail(
      [&](std::size_t k) { return za.acf->at(k); }, weight, 100, 1000);
  FbndpTarget target;
  target.mean = constants.mean;
  target.variance = constants.variance;
  target.alpha = tail.alpha;
  target.M = constants.M_pure;
  target.Ts = constants.Ts;
  MixtureReport report;
  report.v = 0.0;  // pure FBNDP
  report.alpha = tail.alpha;
  report.a = 0.0;
  report.lambda = constants.mean / constants.Ts;
  report.t0_msec = implied_fractal_onset_time(target) * 1000.0;
  report.M = constants.M_pure;
  return report;
}

DarFit report_dar_fit(double a, std::size_t p,
                      const PaperConstants& constants) {
  const ModelSpec za = make_za(a, constants);
  std::vector<double> targets(p);
  for (std::size_t k = 1; k <= p; ++k) targets[k - 1] = za.acf->at(k);
  return fit_dar(targets);
}

ModelSpec model_from_id(const std::string& id,
                        const PaperConstants& constants) {
  // Split on ':' into family + parameter fields.
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = id.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(id.substr(start));
      break;
    }
    parts.push_back(id.substr(start, colon - start));
    start = colon + 1;
  }
  const std::string& family = parts[0];
  const std::size_t arity = parts.size() - 1;

  auto bad = [&](const std::string& why) -> util::InvalidArgument {
    return util::InvalidArgument("model id '" + id + "': " + why);
  };
  auto number = [&](std::size_t i) {
    double value = 0.0;
    if (!util::try_parse_double(parts[i], &value)) {
      throw bad("expected a number, got '" + parts[i] + "'");
    }
    return value;
  };
  auto expect_arity = [&](std::size_t want) {
    if (arity != want) {
      throw bad("family '" + family + "' takes " + std::to_string(want) +
                " parameter(s), got " + std::to_string(arity));
    }
  };

  if (family == "za") {
    expect_arity(1);
    return make_za(number(1), constants);
  }
  if (family == "vv") {
    expect_arity(1);
    return make_vv(number(1), constants);
  }
  if (family == "dar") {
    expect_arity(2);
    const double a = number(1);
    std::int64_t p = 0;
    if (!util::try_parse_int(parts[2], &p) || p < 1) {
      throw bad("DAR order must be a positive integer, got '" + parts[2] +
                "'");
    }
    return make_dar_matched_to_za(a, static_cast<std::size_t>(p), constants);
  }
  if (family == "l") {
    expect_arity(0);
    return make_l(constants);
  }
  if (family == "white") {
    expect_arity(0);
    return make_white(constants);
  }
  if (family == "ar1") {
    expect_arity(1);
    return make_ar1(number(1), constants);
  }
  if (family == "farima") {
    expect_arity(1);
    return make_farima(number(1), constants);
  }
  if (family == "mginf") {
    expect_arity(1);
    return make_mginf(number(1), constants);
  }
  throw bad(
      "unknown family (known: za, vv, dar, l, white, ar1, farima, mginf)");
}

}  // namespace cts::fit
