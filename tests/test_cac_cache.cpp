// Unit tests for the admission-control memoization cache: bit-identity
// with the direct library entry points and with a fresh cache, opt-in
// interpolation, and the hit/miss accounting the daemon's stats endpoint
// exposes.

#include "cts/atm/cac_cache.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cts/atm/cac.hpp"
#include "cts/core/simd.hpp"
#include "cts/util/error.hpp"

namespace ca = cts::atm;
namespace cf = cts::fit;
namespace cu = cts::util;

namespace {

ca::CacProblem paper_problem() {
  ca::CacProblem p;
  p.capacity_cells_per_frame = 16140.0;  // 30 x 538
  p.buffer_cells = 4035.0;               // 10 ms at that drain rate
  p.log10_target_clr = -6.0;
  return p;
}

}  // namespace

TEST(CacCache, RepeatQueryIsAHitAndBitIdentical) {
  const cf::ModelSpec model = cf::make_za(0.9);
  ca::CacCache cache;
  const double first = cache.log10_bop(model, paper_problem(), 20);
  ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.rate_misses, 1u);
  EXPECT_EQ(stats.rate_hits, 0u);
  EXPECT_EQ(stats.rate_entries, 1u);

  const double second = cache.log10_bop(model, paper_problem(), 20);
  EXPECT_EQ(first, second);  // bit-identical, not merely close
  stats = cache.stats();
  EXPECT_EQ(stats.rate_misses, 1u);
  EXPECT_EQ(stats.rate_hits, 1u);
  EXPECT_EQ(stats.rate_entries, 1u);
}

TEST(CacCache, InfeasibleNReportsCertaintyAndIsNotCached) {
  // N = 40 makes c = 16140/40 = 403.5 <= mean 500: the queue is unstable,
  // overflow has probability ~1, and the log10 scale reports 0.0 (NOT
  // +inf -- log10 is clamped at certainty).  Such points are not cached.
  const cf::ModelSpec model = cf::make_za(0.9);
  ca::CacCache cache;
  EXPECT_EQ(cache.log10_bop(model, paper_problem(), 40), 0.0);
  const ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.rate_hits, 0u);
  EXPECT_EQ(stats.rate_misses, 0u);
  EXPECT_EQ(stats.rate_entries, 0u);
}

TEST(CacCache, WarmStartedScansAreBitIdenticalToColdScans) {
  // Ascending buffers at a fixed (model, c) on one cache: the points
  // already cached for the same curve must not change a miss's answer
  // against a fresh cache.
  const cf::ModelSpec model = cf::make_za(0.9);
  ca::CacCache warm;
  for (const double buffer :
       {500.0, 1000.0, 2000.0, 4035.0, 8000.0, 16000.0, 32000.0}) {
    ca::CacProblem p = paper_problem();
    p.buffer_cells = buffer;
    const double warmed = warm.log10_bop(model, p, 20);
    ca::CacCache cold;
    EXPECT_EQ(warmed, cold.log10_bop(model, p, 20)) << "buffer=" << buffer;
  }
  const ca::CacCache::Stats stats = warm.stats();
  EXPECT_EQ(stats.rate_misses, 7u);
  EXPECT_EQ(stats.rate_entries, 7u);
}

TEST(CacCache, WarmStartedScansAreBitIdenticalAcrossSimdKinds) {
  // Answers must not depend on the host's instruction set (or on the
  // CTS_SIMD override a worker happens to run with).
  namespace cds = cts::core::simd;
  struct Guard {
    ~Guard() { cds::clear_force(); }
  } guard;
  const cf::ModelSpec model = cf::make_za(0.9);
  std::vector<double> reference;
  cds::force(cds::Kind::kScalar);
  {
    ca::CacCache cache;
    for (const double buffer : {500.0, 2000.0, 8000.0, 32000.0}) {
      ca::CacProblem p = paper_problem();
      p.buffer_cells = buffer;
      reference.push_back(cache.log10_bop(model, p, 20));
    }
  }
  cds::force(cds::best_supported());
  ca::CacCache cache;
  std::size_t i = 0;
  for (const double buffer : {500.0, 2000.0, 8000.0, 32000.0}) {
    ca::CacProblem p = paper_problem();
    p.buffer_cells = buffer;
    EXPECT_EQ(cache.log10_bop(model, p, 20), reference[i++])
        << "buffer=" << buffer;
  }
}

TEST(CacCache, AdmissibleBrMatchesDirectCallAndReusesFinalBop) {
  for (const cf::ModelSpec& model :
       {cf::make_za(0.9), cf::make_dar_matched_to_za(0.9, 1),
        cf::make_ar1(0.8)}) {
    ca::CacCache cache;
    const ca::CacResult cached = cache.admissible_br(model, paper_problem());
    const ca::CacResult direct =
        ca::admissible_connections_br(model, paper_problem());
    EXPECT_EQ(cached.admissible, direct.admissible) << model.name;
    EXPECT_EQ(cached.log10_bop_at_max, direct.log10_bop_at_max) << model.name;

    // The binary search's probes all hit distinct (c, b) points; only the
    // final BOP report re-reads one -- exactly one guaranteed cache hit,
    // never a re-scan.
    const ca::CacCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.rate_hits, 1u) << model.name;
    EXPECT_GE(stats.rate_misses, 1u) << model.name;
  }
}

TEST(CacCache, AdmissibleEbMatchesDirectCallAndMemoizesVarianceRate) {
  const cf::ModelSpec model = cf::make_dar_matched_to_za(0.9, 1);
  ca::CacCache cache;
  const ca::CacResult first = cache.admissible_eb(model, paper_problem());
  const ca::CacResult direct =
      ca::admissible_connections_eb(model, paper_problem());
  EXPECT_EQ(first.admissible, direct.admissible);
  EXPECT_EQ(first.log10_bop_at_max, direct.log10_bop_at_max);
  ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.eb_misses, 1u);
  EXPECT_EQ(stats.eb_hits, 0u);

  const ca::CacResult second = cache.admissible_eb(model, paper_problem());
  EXPECT_EQ(second.admissible, first.admissible);
  EXPECT_EQ(second.log10_bop_at_max, first.log10_bop_at_max);
  stats = cache.stats();
  EXPECT_EQ(stats.eb_misses, 1u);  // the summation ran once
  EXPECT_EQ(stats.eb_hits, 1u);
}

TEST(CacCache, CachedLrdFailureRethrowsTheSameError) {
  // An LRD model has no finite variance rate; the failure itself is
  // memoized, so a re-query throws immediately with the identical message
  // instead of re-running the divergent summation.
  const cf::ModelSpec model = cf::make_l();
  ca::CacCache cache;
  std::string first_error;
  try {
    cache.admissible_eb(model, paper_problem());
    FAIL() << "expected NumericalError";
  } catch (const cu::NumericalError& e) {
    first_error = e.what();
  }
  EXPECT_FALSE(first_error.empty());
  try {
    cache.admissible_eb(model, paper_problem());
    FAIL() << "expected NumericalError";
  } catch (const cu::NumericalError& e) {
    EXPECT_EQ(std::string(e.what()), first_error);
  }
  const ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.eb_misses, 1u);
  EXPECT_EQ(stats.eb_hits, 1u);
}

TEST(CacCache, InterpolationBracketsCachedGridPoints) {
  const cf::ModelSpec model = cf::make_za(0.9);
  ca::CacProblem below = paper_problem();
  below.buffer_cells = 2000.0;
  ca::CacProblem above = paper_problem();
  above.buffer_cells = 4000.0;
  ca::CacCache cache;
  const double y0 = cache.log10_bop(model, below, 20);
  const double y1 = cache.log10_bop(model, above, 20);
  ASSERT_LT(y1, y0);  // BOP improves with buffer

  // Mid-grid probe with interpolation allowed: served from the bracket,
  // no new scan, and the value sits between the bracket's endpoints.
  ca::CacProblem mid = paper_problem();
  mid.buffer_cells = 3000.0;
  const double interpolated = cache.log10_bop_interpolated(model, mid, 20);
  EXPECT_LE(interpolated, y0);
  EXPECT_GE(interpolated, y1);
  ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.interpolations, 1u);
  EXPECT_EQ(stats.rate_misses, 2u);   // only the two priming scans
  EXPECT_EQ(stats.rate_entries, 2u);  // the probe cached nothing

  // An exactly-cached point is served exactly, never interpolated.
  const double exact = cache.log10_bop_interpolated(model, below, 20);
  EXPECT_EQ(exact, y0);
  stats = cache.stats();
  EXPECT_EQ(stats.interpolations, 1u);
  EXPECT_EQ(stats.rate_hits, 1u);
}

TEST(CacCache, InterpolationFallsBackToExactWithoutABracket) {
  const cf::ModelSpec model = cf::make_za(0.9);
  ca::CacCache cache;
  const double value = cache.log10_bop_interpolated(model, paper_problem(), 20);
  ca::CacCache no_interp;
  EXPECT_EQ(value, no_interp.log10_bop(model, paper_problem(), 20));
  const ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.interpolations, 0u);
  EXPECT_EQ(stats.rate_misses, 1u);  // the fallback scan, now cached
  EXPECT_EQ(stats.rate_entries, 1u);
}

TEST(CacCache, ClearDropsEntriesAndKeepsMonotoneCounters) {
  const cf::ModelSpec model = cf::make_za(0.9);
  ca::CacCache cache;
  (void)cache.log10_bop(model, paper_problem(), 20);
  EXPECT_EQ(cache.stats().rate_entries, 1u);
  cache.clear();
  ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.rate_entries, 0u);
  EXPECT_EQ(stats.rate_misses, 1u);  // history survives the flush
  (void)cache.log10_bop(model, paper_problem(), 20);
  stats = cache.stats();
  EXPECT_EQ(stats.rate_misses, 2u);  // cleared means re-scan, not hit
  EXPECT_EQ(stats.rate_hits, 0u);
}
