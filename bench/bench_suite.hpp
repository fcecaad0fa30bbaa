// Registry of the figure/table/ablation/service benches: one BenchSpec per
// binary, shared by the bench mains themselves (which echo their spec into
// run/perf reports via ObsGuard) and by tools/cts_benchd (which uses it to
// select and launch suites).
//
// Suites:
//   smoke    - fast subset (analytic + short simulations) for CI and the
//              committed BENCH_*.json perf baseline
//   sim      - every bench that runs the replicated fluid/cell simulators
//   analytic - closed-form benches only (no simulation)
//   full     - everything
//
// The micro benches (bench_micro_*) are Google-Benchmark binaries with
// their own repetition machinery and are deliberately not part of this
// registry.

#pragma once

#include <cstddef>
#include <string>

#include "cts/util/error.hpp"

namespace bench {

struct BenchSpec {
  const char* id;      ///< run id, e.g. "fig8_sim_clr"
  const char* binary;  ///< executable name, e.g. "bench_fig8_sim_clr"
  const char* kind;    ///< "analytic" | "sim"
  bool smoke;          ///< member of the smoke suite
  const char* title;   ///< one-line description (from EXPERIMENTS.md)
};

inline constexpr BenchSpec kSuite[] = {
    {"table1", "bench_table1", "analytic", true,
     "Table 1: fitted model parameters"},
    {"fig1_acf_concept", "bench_fig1_acf_concept", "analytic", false,
     "Figure 1: conceptual ACF knobs"},
    {"fig2_sample_paths", "bench_fig2_sample_paths", "sim", true,
     "Figure 2: generated sample paths"},
    {"fig3_acf", "bench_fig3_acf", "analytic", false,
     "Figure 3: analytic ACFs of the fitted models"},
    {"fig4_cts", "bench_fig4_cts", "analytic", false,
     "Figure 4: critical time scale (N=100, c=526)"},
    {"fig5_bop", "bench_fig5_bop", "analytic", true,
     "Figure 5: Bahadur-Rao BOPs of V^v and Z^a"},
    {"fig6_markov_efficacy", "bench_fig6_markov_efficacy", "analytic", false,
     "Figure 6: Markov efficacy (analytic)"},
    {"fig7_wide_range", "bench_fig7_wide_range", "sim", true,
     "Figure 7: BOPs over a wide buffer range"},
    {"fig8_sim_clr", "bench_fig8_sim_clr", "sim", false,
     "Figure 8: simulated CLRs of V^v and Z^a"},
    {"fig9_sim_markov", "bench_fig9_sim_markov", "sim", true,
     "Figure 9: simulated CLRs, Markov efficacy"},
    {"fig10_asymptotics", "bench_fig10_asymptotics", "analytic", false,
     "Figure 10: asymptotics vs simulation curves"},
    {"ablation_marginal", "bench_ablation_marginal", "analytic", false,
     "Ablation: marginal distribution choice"},
    {"ablation_cts_scan", "bench_ablation_cts_scan", "analytic", false,
     "Ablation: CTS scan over utilisation"},
    {"ablation_granularity", "bench_ablation_granularity", "sim", false,
     "Ablation: cell-level vs fluid granularity"},
    {"ablation_lrd_models", "bench_ablation_lrd_models", "analytic", false,
     "Ablation: LRD model family comparison"},
    {"ablation_cutoff", "bench_ablation_cutoff", "sim", false,
     "Ablation: correlation cutoff sensitivity"},
    {"cacd", "bench_cacd", "analytic", true,
     "Admission service: CAC query throughput, cold vs warm cache"},
    {"scan_sweep", "bench_scan_sweep", "analytic", true,
     "Scan sweep: CTS envelope vs the scalar scan oracle"},
};

inline constexpr std::size_t kSuiteSize = sizeof(kSuite) / sizeof(kSuite[0]);

/// Looks a bench up by id; throws util::InvalidArgument for an unknown id
/// so a renamed bench fails loudly at startup, not silently at report time.
inline const BenchSpec& spec(const std::string& id) {
  for (const BenchSpec& s : kSuite) {
    if (id == s.id) return s;
  }
  throw cts::util::InvalidArgument("bench_suite: unknown bench id '" + id +
                                   "'");
}

}  // namespace bench
