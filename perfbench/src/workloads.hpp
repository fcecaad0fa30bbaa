// The four perfbench workloads (see perfbench/README.md for why each
// exists and which layers it exercises).

#pragma once

#include <memory>

#include "harness.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_analytic_sweep(const Options& opt);
std::unique_ptr<Workload> make_sim_markov(const Options& opt);
std::unique_ptr<Workload> make_scenario_lrd(const Options& opt);
std::unique_ptr<Workload> make_cac_service(const Options& opt);

/// The workload named by opt.workload, or null for an unknown name.
std::unique_ptr<Workload> make_workload(const Options& opt);

}  // namespace perfbench
