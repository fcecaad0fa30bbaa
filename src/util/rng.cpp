#include "cts/util/rng.hpp"

#include <math.h>

#include <cmath>

#include "cts/util/error.hpp"
#include "cts/util/math.hpp"

namespace cts::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : state_) word = sm.next();
}

Xoshiro256pp::result_type Xoshiro256pp::operator()() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

void Xoshiro256pp::jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
      0x39ABDC4529B1661CULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (std::uint64_t{1} << b)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      operator()();
    }
  }
  state_ = {s0, s1, s2, s3};
}

Xoshiro256pp Xoshiro256pp::split() noexcept {
  // Derive a child seed from fresh output, then perturb the child through
  // SplitMix64 so parent and child state words share no linear structure.
  const std::uint64_t child_seed = operator()() ^ 0xA3EC647659359ACDULL;
  return Xoshiro256pp(child_seed);
}

double NormalSampler::operator()(Xoshiro256pp& rng) noexcept {
  if (has_cached_) {
    has_cached_ = false;
    return cached_;
  }
  double u, v, s;
  do {
    u = 2.0 * rng.uniform01() - 1.0;
    v = 2.0 * rng.uniform01() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_ = v * factor;
  has_cached_ = true;
  return u * factor;
}

namespace {

// Inversion by sequential search; fine for mean <= 30.
std::uint64_t poisson_small(Xoshiro256pp& rng, double mean) {
  const double l = std::exp(-mean);
  std::uint64_t k = 0;
  double p = rng.uniform01();
  while (p > l) {
    ++k;
    p *= rng.uniform01();
  }
  return k;
}

// lgamma_r, not std::lgamma: std::lgamma writes the global `signgam`, a
// data race when replication threads draw Poisson variates concurrently.
// Same values.
double log_factorial(double k) {
  int sign = 0;
  return ::lgamma_r(k + 1.0, &sign);
}

// PTRS transformed rejection (W. Hormann, "The transformed rejection method
// for generating Poisson random variables", 1993).  Valid for mean >= 10.
std::uint64_t poisson_ptrs(Xoshiro256pp& rng, double mean) {
  const double slam = std::sqrt(mean);
  const double loglam = std::log(mean);
  const double b = 0.931 + 2.53 * slam;
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double vr = 0.9277 - 3.6224 / (b - 2.0);
  while (true) {
    const double u = rng.uniform01() - 0.5;
    const double v = rng.uniform01();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= vr) return static_cast<std::uint64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    if (std::log(v) + std::log(inv_alpha) - std::log(a / (us * us) + b) <=
        k * loglam - mean - log_factorial(k)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

}  // namespace

std::uint64_t poisson_sample(Xoshiro256pp& rng, double mean) {
  require(mean >= 0.0 && std::isfinite(mean),
          "poisson_sample: mean must be finite and non-negative");
  if (mean == 0.0) return 0;
  if (mean < 30.0) return poisson_small(rng, mean);
  return poisson_ptrs(rng, mean);
}

double gamma_sample(Xoshiro256pp& rng, double shape, double scale) {
  require(shape > 0.0 && scale > 0.0,
          "gamma_sample: shape and scale must be positive");
  if (shape < 1.0) {
    // Boost: G(shape) = G(shape + 1) * U^{1/shape}.
    const double u = rng.uniform01();
    return gamma_sample(rng, shape + 1.0, scale) *
           std::pow(u, 1.0 / shape);
  }
  // Marsaglia & Tsang (2000).
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  NormalSampler normal;
  while (true) {
    double x;
    double v;
    do {
      x = normal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform01();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

}  // namespace cts::util
