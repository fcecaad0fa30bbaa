// Unit tests for the runtime-dispatched SIMD kernels: every kernel must
// produce byte-identical results on every kind the host supports (the
// bit-identity contract documented in cts/core/simd.hpp).

#include "cts/core/simd.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "cts/util/error.hpp"
#include "cts/util/rng.hpp"

namespace cs = cts::core::simd;
namespace cu = cts::util;

namespace {

/// Restores auto dispatch when a test that pins a kind exits.
struct ForceGuard {
  ~ForceGuard() { cs::clear_force(); }
};

std::vector<cs::Kind> supported_kinds() {
  std::vector<cs::Kind> kinds{cs::Kind::kScalar};
  if (cs::best_supported() >= cs::Kind::kSse2) kinds.push_back(cs::Kind::kSse2);
  if (cs::best_supported() >= cs::Kind::kAvx2) kinds.push_back(cs::Kind::kAvx2);
  return kinds;
}

/// Byte-wise equality of two buffers.  memcmp needs non-null pointers even
/// for a zero length, and an empty vector's data() may be null.
bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

TEST(SimdDispatch, NamesRoundTrip) {
  for (const cs::Kind kind : supported_kinds()) {
    EXPECT_EQ(cs::parse_kind(cs::kind_name(kind)), kind);
  }
}

TEST(SimdDispatch, ParseRejectsUnknownKind) {
  EXPECT_THROW(cs::parse_kind(""), cu::InvalidArgument);
  EXPECT_THROW(cs::parse_kind("avx512"), cu::InvalidArgument);
  EXPECT_THROW(cs::parse_kind("Scalar"), cu::InvalidArgument);
}

TEST(SimdDispatch, ForceSelectsAndClears) {
  ForceGuard guard;
  for (const cs::Kind kind : supported_kinds()) {
    cs::force(kind);
    EXPECT_EQ(cs::active(), kind);
  }
  cs::clear_force();
}

TEST(SimdDotReversed, BitIdenticalAcrossKindsAndCloseToNaive) {
  ForceGuard guard;
  cu::Xoshiro256pp rng(99);
  for (const std::size_t n :
       {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 17u, 63u, 256u, 1023u}) {
    std::vector<double> a(n), rev(n);
    for (auto& x : a) x = rng.uniform01() * 2.0 - 1.0;
    for (auto& x : rev) x = rng.uniform01() * 2.0 - 1.0;
    const double* rev_last = rev.empty() ? nullptr : &rev[n - 1];
    cs::force(cs::Kind::kScalar);
    const double ref = cs::dot_reversed(a.data(), rev_last, n);
    double naive = 0.0;
    for (std::size_t j = 0; j < n; ++j) naive += a[j] * rev[n - 1 - j];
    EXPECT_NEAR(ref, naive, 1e-12 * (1.0 + std::fabs(naive))) << "n=" << n;
    for (const cs::Kind kind : supported_kinds()) {
      cs::force(kind);
      const double got = cs::dot_reversed(a.data(), rev_last, n);
      EXPECT_EQ(got, ref) << cs::kind_name(kind) << " n=" << n;
    }
  }
}

TEST(SimdAxpyReversed, BitIdenticalAcrossKinds) {
  ForceGuard guard;
  cu::Xoshiro256pp rng(7);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 13u, 64u, 255u}) {
    std::vector<double> a(n);
    for (auto& x : a) x = rng.uniform01() * 2.0 - 1.0;
    const double r = rng.uniform01();
    std::vector<double> ref(n, 0.0);
    cs::force(cs::Kind::kScalar);
    cs::axpy_reversed(a.data(), n > 0 ? &a[n - 1] : nullptr, r, ref.data(),
                      n);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(ref[j], a[j] - r * a[n - 1 - j]);
    }
    for (const cs::Kind kind : supported_kinds()) {
      cs::force(kind);
      std::vector<double> out(n, 0.0);
      cs::axpy_reversed(a.data(), n > 0 ? &a[n - 1] : nullptr, r, out.data(),
                        n);
      EXPECT_TRUE(same_bytes(out, ref))
          << cs::kind_name(kind) << " n=" << n;
    }
  }
}

TEST(SimdScalePairs, BitIdenticalAcrossKinds) {
  ForceGuard guard;
  cu::Xoshiro256pp rng(21);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 7u, 8u, 31u, 128u, 511u}) {
    std::vector<double> s(n), z(2 * n);
    for (auto& x : s) x = rng.uniform01() * 3.0;
    for (auto& x : z) x = rng.uniform01() * 2.0 - 1.0;
    std::vector<double> ref(2 * n, 0.0);
    cs::force(cs::Kind::kScalar);
    cs::scale_pairs(s.data(), z.data(), ref.data(), n);
    for (const cs::Kind kind : supported_kinds()) {
      cs::force(kind);
      std::vector<double> out(2 * n, 0.0);
      cs::scale_pairs(s.data(), z.data(), out.data(), n);
      EXPECT_TRUE(same_bytes(out, ref))
          << cs::kind_name(kind) << " n=" << n;
    }
    // In-place use (out aliases z), as the Davies-Harte refill does.
    for (const cs::Kind kind : supported_kinds()) {
      cs::force(kind);
      std::vector<double> inplace = z;
      cs::scale_pairs(s.data(), inplace.data(), inplace.data(), n);
      EXPECT_TRUE(same_bytes(inplace, ref))
          << cs::kind_name(kind) << " n=" << n;
    }
  }
}

TEST(SimdScaledRealStride2, BitIdenticalAcrossKinds) {
  ForceGuard guard;
  cu::Xoshiro256pp rng(42);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 9u, 100u, 513u}) {
    std::vector<double> in(2 * n);
    for (auto& x : in) x = rng.uniform01() * 2.0 - 1.0;
    const double norm = 1.0 / std::sqrt(1024.0);
    std::vector<double> ref(n, 0.0);
    cs::force(cs::Kind::kScalar);
    cs::scaled_real_stride2(in.data(), norm, ref.data(), n);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(ref[j], in[2 * j] * norm);
    }
    for (const cs::Kind kind : supported_kinds()) {
      cs::force(kind);
      std::vector<double> out(n, 0.0);
      cs::scaled_real_stride2(in.data(), norm, out.data(), n);
      EXPECT_TRUE(same_bytes(out, ref))
          << cs::kind_name(kind) << " n=" << n;
    }
  }
}
