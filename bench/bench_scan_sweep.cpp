// Analytic hot-path bench: dense Bahadur-Rao buffer sweeps through the
// CTS argmin, the cold scalar scan oracle (tests/cts_scan_oracle.hpp)
// against the lower envelope of RateFunction::evaluate.
//
// Three passes answer the same buffer grid per model and must agree
// bit-for-bit: the oracle, one scan per point; the envelope queried in
// ascending order after one build at the largest buffer; and the envelope
// queried in shuffled order on a fresh RateFunction, growing lazily.  The
// bench exits non-zero on any divergence.  It reports the envelope's build
// time (V(m) table plus envelope, sized once) apart from its query time.
// The --csv mirror carries values only (no timings): the forced-scalar CI
// leg re-runs it under CTS_SIMD=scalar and diffs the two files
// byte-for-byte.

#include <ctime>
#include <cstdio>

#include "bench_common.hpp"
#include "cts/core/br_asymptotic.hpp"
#include "cts/core/rate_function.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/util/rng.hpp"
#include "cts_scan_oracle.hpp"

namespace cc = cts::core;
namespace cu = cts::util;
namespace obs = cts::obs;

namespace {

double monotonic_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Sweep {
  std::vector<std::size_t> critical_m;
  std::vector<double> log10_bop;
  std::vector<double> rate;

  explicit Sweep(std::size_t n) : critical_m(n), log10_bop(n), rate(n) {}

  void set(std::size_t i, const cc::RateResult& r, double b,
           std::size_t n_sources) {
    const cc::BopPoint point = cc::br_log10_bop(r, b, n_sources);
    critical_m[i] = point.critical_m;
    log10_bop[i] = point.log10_bop;
    rate[i] = point.rate;
  }
};

bool identical(const Sweep& reference, const Sweep& candidate,
               const std::string& model, const char* what) {
  for (std::size_t i = 0; i < reference.critical_m.size(); ++i) {
    if (candidate.critical_m[i] != reference.critical_m[i] ||
        candidate.log10_bop[i] != reference.log10_bop[i] ||
        candidate.rate[i] != reference.rate[i]) {
      std::fprintf(stderr,
                   "scan_sweep: %s pass diverged from the scan oracle "
                   "(model %s, grid point %zu)\n",
                   what, model.c_str(), i);
      return false;
    }
  }
  return true;
}

/// Shortest-exact double formatting for the CSV mirror: byte-stable across
/// runs and SIMD kinds, diffable with cmp(1).
std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

}  // namespace

int main(int argc, char** argv) {
  const cu::Flags flags(argc, argv);
  const bench::ObsGuard guard(flags, bench::spec("scan_sweep"),
                              {"points", "sweeps"});
  bench::banner("Scan sweep: CTS envelope vs the scalar scan oracle "
                "(Bahadur-Rao)");
  cu::CsvWriter csv({"model", "buffer_ms", "critical_m", "log10_bop", "rate"});

  const long long points = flags.get_int("points", 1500);
  // Ascending query sweeps timed per model: one sweep is well under a
  // millisecond.
  const long long sweeps = flags.get_int("sweeps", 8);
  const cts::sim::MuxGeometry geometry = bench::paper_mux_30();
  const std::size_t n = geometry.n_sources;
  const std::vector<double> grid_ms = cts::sim::buffer_grid_ms(
      0.5, 2000.0, static_cast<std::size_t>(points));
  std::vector<double> buffers(grid_ms.size());
  for (std::size_t i = 0; i < grid_ms.size(); ++i) {
    buffers[i] = geometry.buffer_ms_to_cells(grid_ms[i]) /
                 static_cast<double>(n);
  }
  // Grid indices in a fixed shuffled order.
  std::vector<std::size_t> shuffled(buffers.size());
  for (std::size_t i = 0; i < shuffled.size(); ++i) shuffled[i] = i;
  cu::Xoshiro256pp rng(0x5CA9);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng() % i]);
  }

  const std::vector<cts::fit::ModelSpec> models = {
      cts::fit::make_za(0.9),
      cts::fit::make_l(),
      cts::fit::make_ar1(0.975),
  };

  cu::TextTable table({"model", "points", "oracle ms", "build ms",
                       "query ms", "shuffled ms", "speedup"});
  double min_speedup = 0.0;
  for (const cts::fit::ModelSpec& model : models) {
    const double c = geometry.bandwidth_per_source;

    Sweep oracle(buffers.size());
    const double oracle_start = monotonic_s();
    {
      const cts::testing::ScanOracle scan(model.acf, model.mean,
                                          model.variance, c);
      for (std::size_t i = 0; i < buffers.size(); ++i) {
        oracle.set(i, scan.evaluate(buffers[i]), buffers[i], n);
      }
    }
    const double oracle_s = monotonic_s() - oracle_start;

    Sweep ascending(buffers.size());
    const cc::RateFunction rate(model.acf, model.mean, model.variance, c);
    const double build_start = monotonic_s();
    (void)rate.evaluate(buffers.back());
    const double build_s = monotonic_s() - build_start;
    const double query_start = monotonic_s();
    for (long long sweep = 0; sweep < sweeps; ++sweep) {
      for (std::size_t i = 0; i < buffers.size(); ++i) {
        const cc::RateResult r = rate.evaluate(buffers[i]);
        if (sweep == 0) ascending.set(i, r, buffers[i], n);
      }
    }
    const double query_s =
        (monotonic_s() - query_start) / static_cast<double>(sweeps);

    Sweep mixed(buffers.size());
    const double mixed_start = monotonic_s();
    {
      const cc::RateFunction fresh(model.acf, model.mean, model.variance, c);
      for (const std::size_t i : shuffled) {
        mixed.set(i, fresh.evaluate(buffers[i]), buffers[i], n);
      }
    }
    const double mixed_s = monotonic_s() - mixed_start;

    if (!identical(oracle, ascending, model.name, "ascending envelope") ||
        !identical(oracle, mixed, model.name, "shuffled envelope")) {
      return 1;
    }

    const double speedup = oracle_s / (build_s + query_s);
    if (min_speedup == 0.0 || speedup < min_speedup) min_speedup = speedup;
    table.add_row({model.name, cu::format_int(points),
                   cu::format_fixed(oracle_s * 1e3, 1),
                   cu::format_fixed(build_s * 1e3, 2),
                   cu::format_fixed(query_s * 1e3, 3),
                   cu::format_fixed(mixed_s * 1e3, 2),
                   cu::format_fixed(speedup, 1)});
    for (std::size_t i = 0; i < grid_ms.size(); ++i) {
      csv.add_row({model.name, g17(grid_ms[i]),
                   cu::format_int(static_cast<long long>(
                       ascending.critical_m[i])),
                   g17(ascending.log10_bop[i]), g17(ascending.rate[i])});
    }
    auto& metrics = obs::MetricsRegistry::global();
    metrics.gauge("scan_sweep.build_ms." + model.name, build_s * 1e3);
    metrics.gauge("scan_sweep.query_ms." + model.name, query_s * 1e3);
    metrics.gauge("scan_sweep.speedup." + model.name, speedup);
  }
  obs::MetricsRegistry::global().gauge("scan_sweep.min_speedup", min_speedup);
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected shape: all three passes bit-identical (enforced); one "
      "envelope build plus a\nsweep of queries beats the per-point oracle "
      "scan (min speedup this run: %.1fx).\n",
      min_speedup);
  bench::maybe_write_csv(flags, csv, "scan_sweep.csv");
  return 0;
}
