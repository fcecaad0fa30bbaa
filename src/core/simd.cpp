// Kernel implementations for cts/core/simd.hpp.
//
// All three variants of each kernel live in this one translation unit:
// the scalar reference (which also defines the semantics), and SSE2/AVX2
// versions compiled via GCC/Clang `target` function attributes so the
// rest of the library keeps the portable baseline ISA.  FMA is never
// enabled for these functions, so mul/add cannot be contracted and each
// element rounds identically on every path.

#include "cts/core/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "cts/util/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define CTS_SIMD_X86 1
#include <immintrin.h>
#else
#define CTS_SIMD_X86 0
#endif

namespace cts::core::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels.  These define the bit-level semantics the
// vector versions must reproduce exactly.
// ---------------------------------------------------------------------------

double dot_reversed_scalar(const double* a, const double* b_last,
                           std::size_t n) {
  // Fixed 4-lane blocked order: lane l sums elements j % 4 == l, lanes
  // combine as (0+2)+(1+3), tail appended sequentially.  The vector
  // versions realise exactly this association.
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const std::size_t n4 = n - n % 4;
  for (std::size_t j = 0; j < n4; j += 4) {
    acc0 += a[j] * b_last[-static_cast<std::ptrdiff_t>(j)];
    acc1 += a[j + 1] * b_last[-static_cast<std::ptrdiff_t>(j + 1)];
    acc2 += a[j + 2] * b_last[-static_cast<std::ptrdiff_t>(j + 2)];
    acc3 += a[j + 3] * b_last[-static_cast<std::ptrdiff_t>(j + 3)];
  }
  double sum = (acc0 + acc2) + (acc1 + acc3);
  for (std::size_t j = n4; j < n; ++j) {
    sum += a[j] * b_last[-static_cast<std::ptrdiff_t>(j)];
  }
  return sum;
}

void axpy_reversed_scalar(const double* a, const double* a_last, double r,
                          double* out, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = a[j] - r * a_last[-static_cast<std::ptrdiff_t>(j)];
  }
}

void scale_pairs_scalar(const double* s, const double* z, double* out,
                        std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[2 * j] = s[j] * z[2 * j];
    out[2 * j + 1] = s[j] * z[2 * j + 1];
  }
}

void scaled_real_stride2_scalar(const double* in, double norm, double* out,
                                std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = in[2 * j] * norm;
  }
}

#if CTS_SIMD_X86

// ---------------------------------------------------------------------------
// SSE2 kernels (2-wide doubles).
// ---------------------------------------------------------------------------

__attribute__((target("sse2"))) double dot_reversed_sse2(const double* a,
                                                         const double* b_last,
                                                         std::size_t n) {
  const std::size_t n4 = n - n % 4;
  __m128d acc01 = _mm_setzero_pd();  // lanes j%4 == 0, 1
  __m128d acc23 = _mm_setzero_pd();  // lanes j%4 == 2, 3
  for (std::size_t j = 0; j < n4; j += 4) {
    const __m128d a01 = _mm_loadu_pd(a + j);
    const __m128d a23 = _mm_loadu_pd(a + j + 2);
    // {b[-j-1], b[-j]} -> swap -> {b[-j], b[-j-1]}
    __m128d b01 = _mm_loadu_pd(b_last - j - 1);
    __m128d b23 = _mm_loadu_pd(b_last - j - 3);
    b01 = _mm_shuffle_pd(b01, b01, 1);
    b23 = _mm_shuffle_pd(b23, b23, 1);
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(a01, b01));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(a23, b23));
  }
  double l01[2], l23[2];
  _mm_storeu_pd(l01, acc01);
  _mm_storeu_pd(l23, acc23);
  double sum = (l01[0] + l23[0]) + (l01[1] + l23[1]);
  for (std::size_t j = n4; j < n; ++j) {
    sum += a[j] * b_last[-static_cast<std::ptrdiff_t>(j)];
  }
  return sum;
}

__attribute__((target("sse2"))) void axpy_reversed_sse2(
    const double* a, const double* a_last, double r, double* out,
    std::size_t n) {
  const __m128d vr = _mm_set1_pd(r);
  const std::size_t n2 = n - n % 2;
  for (std::size_t j = 0; j < n2; j += 2) {
    const __m128d av = _mm_loadu_pd(a + j);
    __m128d rv = _mm_loadu_pd(a_last - j - 1);
    rv = _mm_shuffle_pd(rv, rv, 1);
    _mm_storeu_pd(out + j, _mm_sub_pd(av, _mm_mul_pd(vr, rv)));
  }
  for (std::size_t j = n2; j < n; ++j) {
    out[j] = a[j] - r * a_last[-static_cast<std::ptrdiff_t>(j)];
  }
}

__attribute__((target("sse2"))) void scale_pairs_sse2(const double* s,
                                                      const double* z,
                                                      double* out,
                                                      std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const __m128d sv = _mm_set1_pd(s[j]);
    const __m128d zv = _mm_loadu_pd(z + 2 * j);
    _mm_storeu_pd(out + 2 * j, _mm_mul_pd(sv, zv));
  }
}

__attribute__((target("sse2"))) void scaled_real_stride2_sse2(
    const double* in, double norm, double* out, std::size_t n) {
  const __m128d vnorm = _mm_set1_pd(norm);
  const std::size_t n2 = n - n % 2;
  for (std::size_t j = 0; j < n2; j += 2) {
    const __m128d p0 = _mm_loadu_pd(in + 2 * j);      // {re0, im0}
    const __m128d p1 = _mm_loadu_pd(in + 2 * j + 2);  // {re1, im1}
    const __m128d re = _mm_shuffle_pd(p0, p1, 0);     // {re0, re1}
    _mm_storeu_pd(out + j, _mm_mul_pd(re, vnorm));
  }
  for (std::size_t j = n2; j < n; ++j) {
    out[j] = in[2 * j] * norm;
  }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (4-wide doubles).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) double dot_reversed_avx2(const double* a,
                                                         const double* b_last,
                                                         std::size_t n) {
  const std::size_t n4 = n - n % 4;
  __m256d acc = _mm256_setzero_pd();  // lane l holds j%4 == l partial sums
  for (std::size_t j = 0; j < n4; j += 4) {
    const __m256d av = _mm256_loadu_pd(a + j);
    // {b[-j-3], b[-j-2], b[-j-1], b[-j]} -> reverse lanes
    __m256d bv = _mm256_loadu_pd(b_last - j - 3);
    bv = _mm256_permute4x64_pd(bv, _MM_SHUFFLE(0, 1, 2, 3));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
  }
  double lane[4];
  _mm256_storeu_pd(lane, acc);
  double sum = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (std::size_t j = n4; j < n; ++j) {
    sum += a[j] * b_last[-static_cast<std::ptrdiff_t>(j)];
  }
  return sum;
}

__attribute__((target("avx2"))) void axpy_reversed_avx2(
    const double* a, const double* a_last, double r, double* out,
    std::size_t n) {
  const __m256d vr = _mm256_set1_pd(r);
  const std::size_t n4 = n - n % 4;
  for (std::size_t j = 0; j < n4; j += 4) {
    const __m256d av = _mm256_loadu_pd(a + j);
    __m256d rv = _mm256_loadu_pd(a_last - j - 3);
    rv = _mm256_permute4x64_pd(rv, _MM_SHUFFLE(0, 1, 2, 3));
    _mm256_storeu_pd(out + j, _mm256_sub_pd(av, _mm256_mul_pd(vr, rv)));
  }
  for (std::size_t j = n4; j < n; ++j) {
    out[j] = a[j] - r * a_last[-static_cast<std::ptrdiff_t>(j)];
  }
}

__attribute__((target("avx2"))) void scale_pairs_avx2(const double* s,
                                                      const double* z,
                                                      double* out,
                                                      std::size_t n) {
  const std::size_t n2 = n - n % 2;
  for (std::size_t j = 0; j < n2; j += 2) {
    // Duplicate {s[j], s[j+1]} pairwise to {s[j], s[j], s[j+1], s[j+1]}.
    const __m128d s01 = _mm_loadu_pd(s + j);
    const __m256d sv =
        _mm256_permute4x64_pd(_mm256_castpd128_pd256(s01), 0x50);
    const __m256d zv = _mm256_loadu_pd(z + 2 * j);
    _mm256_storeu_pd(out + 2 * j, _mm256_mul_pd(sv, zv));
  }
  for (std::size_t j = n2; j < n; ++j) {
    out[2 * j] = s[j] * z[2 * j];
    out[2 * j + 1] = s[j] * z[2 * j + 1];
  }
}

__attribute__((target("avx2"))) void scaled_real_stride2_avx2(
    const double* in, double norm, double* out, std::size_t n) {
  const __m256d vnorm = _mm256_set1_pd(norm);
  const std::size_t n4 = n - n % 4;
  for (std::size_t j = 0; j < n4; j += 4) {
    const __m256d p0 = _mm256_loadu_pd(in + 2 * j);      // re0 im0 re1 im1
    const __m256d p1 = _mm256_loadu_pd(in + 2 * j + 4);  // re2 im2 re3 im3
    // unpacklo across 128-bit halves gives {re0, re1, re2, re3} after a
    // cross-lane permute: build {re0, re2, re1, re3} then fix the order.
    const __m256d lo = _mm256_unpacklo_pd(p0, p1);  // re0 re2 re1 re3
    const __m256d re = _mm256_permute4x64_pd(lo, _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_pd(out + j, _mm256_mul_pd(re, vnorm));
  }
  for (std::size_t j = n4; j < n; ++j) {
    out[j] = in[2 * j] * norm;
  }
}

#endif  // CTS_SIMD_X86

std::atomic<int> g_forced{-1};

Kind resolve_env_kind() {
  const char* env = std::getenv("CTS_SIMD");
  if (env == nullptr || *env == '\0') return best_supported();
  const Kind kind = parse_kind(env);
  if (static_cast<int>(kind) > static_cast<int>(best_supported())) {
    throw util::InvalidArgument(std::string("CTS_SIMD=") + env +
                                " is not supported by this CPU");
  }
  return kind;
}

}  // namespace

const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kSse2:
      return "sse2";
    case Kind::kAvx2:
      return "avx2";
    case Kind::kScalar:
    default:
      return "scalar";
  }
}

Kind best_supported() noexcept {
#if CTS_SIMD_X86
  static const Kind kind = [] {
    if (__builtin_cpu_supports("avx2")) return Kind::kAvx2;
    if (__builtin_cpu_supports("sse2")) return Kind::kSse2;
    return Kind::kScalar;
  }();
  return kind;
#else
  return Kind::kScalar;
#endif
}

Kind active() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Kind>(forced);
  // Magic static: the env override is parsed and validated once; a throw
  // during initialisation propagates to the caller and retries next call.
  static const Kind env_kind = resolve_env_kind();
  return env_kind;
}

void force(Kind kind) {
  if (static_cast<int>(kind) > static_cast<int>(best_supported())) {
    throw util::InvalidArgument(
        std::string("simd::force: kind '") + kind_name(kind) +
        "' is not supported by this CPU");
  }
  g_forced.store(static_cast<int>(kind), std::memory_order_relaxed);
}

void clear_force() noexcept { g_forced.store(-1, std::memory_order_relaxed); }

Kind parse_kind(std::string_view name) {
  if (name == "scalar") return Kind::kScalar;
  if (name == "sse2") return Kind::kSse2;
  if (name == "avx2") return Kind::kAvx2;
  throw util::InvalidArgument("CTS_SIMD: unknown kind '" + std::string(name) +
                              "' (expected scalar, sse2, or avx2)");
}

double dot_reversed(const double* a, const double* b_last, std::size_t n) {
  if (n == 0) return 0.0;
  switch (active()) {
#if CTS_SIMD_X86
    case Kind::kAvx2:
      return dot_reversed_avx2(a, b_last, n);
    case Kind::kSse2:
      return dot_reversed_sse2(a, b_last, n);
#endif
    default:
      return dot_reversed_scalar(a, b_last, n);
  }
}

void axpy_reversed(const double* a, const double* a_last, double r,
                   double* out, std::size_t n) {
  if (n == 0) return;
  switch (active()) {
#if CTS_SIMD_X86
    case Kind::kAvx2:
      axpy_reversed_avx2(a, a_last, r, out, n);
      return;
    case Kind::kSse2:
      axpy_reversed_sse2(a, a_last, r, out, n);
      return;
#endif
    default:
      axpy_reversed_scalar(a, a_last, r, out, n);
  }
}

void scale_pairs(const double* s, const double* z, double* out,
                 std::size_t n) {
  if (n == 0) return;
  switch (active()) {
#if CTS_SIMD_X86
    case Kind::kAvx2:
      scale_pairs_avx2(s, z, out, n);
      return;
    case Kind::kSse2:
      scale_pairs_sse2(s, z, out, n);
      return;
#endif
    default:
      scale_pairs_scalar(s, z, out, n);
  }
}

void scaled_real_stride2(const double* in, double norm, double* out,
                         std::size_t n) {
  if (n == 0) return;
  switch (active()) {
#if CTS_SIMD_X86
    case Kind::kAvx2:
      scaled_real_stride2_avx2(in, norm, out, n);
      return;
    case Kind::kSse2:
      scaled_real_stride2_sse2(in, norm, out, n);
      return;
#endif
    default:
      scaled_real_stride2_scalar(in, norm, out, n);
  }
}

}  // namespace cts::core::simd
