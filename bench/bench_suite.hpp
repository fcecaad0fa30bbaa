// Registry of the figure/table/ablation/service benches: one BenchSpec per
// binary, shared by the bench mains themselves (which echo their spec into
// the --metrics run report via ObsGuard) and by the shard tools (cts_simd,
// cts_shardd), which accept a bench only by its registry id.
//
// The micro benches (bench_micro_*) are Google-Benchmark binaries with
// their own repetition machinery and are deliberately not part of this
// registry.

#pragma once

#include <string>

#include "cts/util/error.hpp"

namespace bench {

struct BenchSpec {
  const char* id;      ///< run id, e.g. "fig8_sim_clr"
  const char* binary;  ///< executable name, e.g. "bench_fig8_sim_clr"
  const char* kind;    ///< "analytic" | "sim"
  const char* title;   ///< one-line description (from EXPERIMENTS.md)
};

inline constexpr BenchSpec kSuite[] = {
    {"table1", "bench_table1", "analytic",
     "Table 1: fitted model parameters"},
    {"fig1_acf_concept", "bench_fig1_acf_concept", "analytic",
     "Figure 1: conceptual ACF knobs"},
    {"fig2_sample_paths", "bench_fig2_sample_paths", "sim",
     "Figure 2: generated sample paths"},
    {"fig3_acf", "bench_fig3_acf", "analytic",
     "Figure 3: analytic ACFs of the fitted models"},
    {"fig4_cts", "bench_fig4_cts", "analytic",
     "Figure 4: critical time scale (N=100, c=526)"},
    {"fig5_bop", "bench_fig5_bop", "analytic",
     "Figure 5: Bahadur-Rao BOPs of V^v and Z^a"},
    {"fig6_markov_efficacy", "bench_fig6_markov_efficacy", "analytic",
     "Figure 6: Markov efficacy (analytic)"},
    {"fig7_wide_range", "bench_fig7_wide_range", "sim",
     "Figure 7: BOPs over a wide buffer range"},
    {"fig8_sim_clr", "bench_fig8_sim_clr", "sim",
     "Figure 8: simulated CLRs of V^v and Z^a"},
    {"fig9_sim_markov", "bench_fig9_sim_markov", "sim",
     "Figure 9: simulated CLRs, Markov efficacy"},
    {"fig10_asymptotics", "bench_fig10_asymptotics", "analytic",
     "Figure 10: asymptotics vs simulation curves"},
    {"ablation_marginal", "bench_ablation_marginal", "analytic",
     "Ablation: marginal distribution choice"},
    {"ablation_cts_scan", "bench_ablation_cts_scan", "analytic",
     "Ablation: CTS scan over utilisation"},
    {"ablation_granularity", "bench_ablation_granularity", "sim",
     "Ablation: cell-level vs fluid granularity"},
    {"ablation_lrd_models", "bench_ablation_lrd_models", "analytic",
     "Ablation: LRD model family comparison"},
    {"ablation_cutoff", "bench_ablation_cutoff", "sim",
     "Ablation: correlation cutoff sensitivity"},
    {"cacd", "bench_cacd", "analytic",
     "Admission service: CAC query throughput, cold vs warm cache"},
    {"scan_sweep", "bench_scan_sweep", "analytic",
     "Scan sweep: CTS envelope vs the scalar scan oracle"},
};

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
