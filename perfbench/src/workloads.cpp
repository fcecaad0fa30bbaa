#include "workloads.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "analytic_sweep") return make_analytic_sweep(opt);
  if (opt.workload == "sim_markov") return make_sim_markov(opt);
  if (opt.workload == "scenario_lrd") return make_scenario_lrd(opt);
  if (opt.workload == "cac_service") return make_cac_service(opt);
  return nullptr;
}

}  // namespace perfbench
