// Runtime-dispatched SIMD kernels for the Gaussian frame generators.
//
// The kernels here back the Davies-Harte block scaling and the
// Hosking/Durbin-Levinson inner products.  The CTS argmin
// (`RateFunction::evaluate`) has none: it answers from a lower envelope of
// lines, not from a scan.  Dispatch picks the best instruction set the
// host supports (AVX2 > SSE2 > scalar, probed once via cpuid) and can be
// overridden for testing with the `CTS_SIMD=scalar|sse2|avx2` environment
// variable or the `force()` hook.
//
// Bit-identity contract: every kernel produces byte-identical results on
// every dispatch kind.  Element-wise kernels (`scale_pairs`,
// `axpy_reversed`, `scaled_real_stride2`) use only per-element IEEE-754
// mul/add/div (never FMA), which round identically in scalar and vector
// registers.  Reductions cannot reorder floating-point sums freely, so
// `dot_reversed` fixes a "4-lane blocked" summation order -- lane l
// accumulates elements j with j % 4 == l, lanes combine as
// (acc0 + acc2) + (acc1 + acc3), and the tail is added sequentially --
// which all three implementations realise exactly.  Tests assert the
// contract kernel by kernel (test_simd_kernels) and on generated frames
// (test_gaussian_acf_source).

#pragma once

#include <cstddef>
#include <string_view>

namespace cts::core::simd {

/// Available kernel implementations, ordered by preference.
enum class Kind {
  kScalar = 0,  ///< portable fallback, always available
  kSse2 = 1,    ///< 2-wide doubles (baseline on x86-64)
  kAvx2 = 2,    ///< 4-wide doubles
};

/// Short lowercase name ("scalar", "sse2", "avx2") for logs and flags.
const char* kind_name(Kind kind) noexcept;

/// Best kind the host CPU supports (cpuid probe, computed once).
Kind best_supported() noexcept;

/// The kind kernels currently dispatch to: a `force()`d kind if set, else
/// the validated `CTS_SIMD` environment override, else `best_supported()`.
/// Throws util::InvalidArgument on the first call if `CTS_SIMD` is set to
/// an unknown name or to a kind the host cannot execute.
Kind active();

/// Test hook: pin dispatch to `kind` (must be supported by the host;
/// throws util::InvalidArgument otherwise).  Thread-safe.
void force(Kind kind);

/// Test hook: clears a `force()`d kind, restoring env/auto dispatch.
void clear_force() noexcept;

/// Parses "scalar"/"sse2"/"avx2"; throws util::InvalidArgument otherwise.
Kind parse_kind(std::string_view name);

/// sum_{j=0..n-1} a[j] * b_last[-j]  -- a forward vector against a
/// reversed one (`b_last` points at the LAST element of the reversed
/// operand).  Fixed 4-lane blocked summation order (see file comment).
double dot_reversed(const double* a, const double* b_last, std::size_t n);

/// out[j] = a[j] - r * a_last[-j] for j in [0, n).  `out` must not alias
/// `a`/`a_last`.  Element-wise, hence exact on every kind.
void axpy_reversed(const double* a, const double* a_last, double r,
                   double* out, std::size_t n);

/// out[2j] = s[j] * z[2j], out[2j+1] = s[j] * z[2j+1] for j in [0, n):
/// scales interleaved complex pairs by a real per-pair factor
/// (Davies-Harte spectral scaling).  `out` may alias `z`.
void scale_pairs(const double* s, const double* z, double* out,
                 std::size_t n);

/// out[j] = in[2j] * norm for j in [0, n): extracts the real parts of an
/// interleaved complex array and applies the FFT normalisation.
void scaled_real_stride2(const double* in, double norm, double* out,
                         std::size_t n);

}  // namespace cts::core::simd
