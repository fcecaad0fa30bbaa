// scenario_lrd: the Fig 8-style LRD simulation as a cts.scenario.v1 run.
// One op is sim::parse_scenario -> sim::run_scenario ->
// sim::write_scenario_result_json on a spec generated from the seed;
// items are source-frames.
//
// FBNDP generation (~6 us a frame for Z^a, L, V^v) dominates.  It is the
// only workload that runs the atm/ pipeline (smoothing, AAL5, GCRA) and
// the scenario executor, on a three-hop tandem whose first hop is a
// two-class priority hop.
//
// run_scenario cannot be split from outside, so the traced round adds
// attribution probes: the same source frames generated again (proc, per
// family), the shaped groups' frames pushed through the same atm stages
// (atm.pipeline), and the priority hop's direct inputs through
// atm::evolve_priority_frame (atm.priority).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "cts/atm/aal5.hpp"
#include "cts/atm/gcra.hpp"
#include "cts/atm/priority_buffer.hpp"
#include "cts/atm/smoothing.hpp"
#include "cts/fit/model_zoo.hpp"
#include "cts/sim/scenario.hpp"
#include "cts/sim/scenario_run.hpp"
#include "cts/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sim = cts::sim;
namespace fit = cts::fit;
namespace atm = cts::atm;

constexpr std::uint64_t kFrames = 3000;
constexpr std::uint64_t kWarmup = 200;
constexpr std::size_t kReplications = 4;
/// Frames of the V^1.5 generator probe (it costs ~300 us a frame).
constexpr std::size_t kVv15Frames = 200;

/// One source group of the generated spec.
struct Group {
  const char* name;
  const char* model;
  const char* family;    ///< generator metric suffix
  const char* gen_span;  ///< "proc.gen.<family>"; a literal, as spans keep it
  std::size_t count;
};

const Group kGroups[] = {
    {"video", "za:0.9", "za", "proc.gen.za", 6},
    {"film", "l", "l", "proc.gen.l", 4},
    {"bulk", "ar1:0.9", "ar1", "proc.gen.ar1", 6},
    {"shaped", "za:0.9", "za", "proc.gen.za", 3},
    {"policed", "l", "l", "proc.gen.l", 3},
    {"sport", "vv:0.67", "vv0.67", "proc.gen.vv0.67", 4},
};

std::string fmt(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", x);
  return buf;
}

/// The spec: video + film (high) and bulk (low) share the priority hop
/// `edge`; its departures meet the smoothed+AAL5 and the policed groups
/// at `agg`, whose departures meet `sport` at `core`.  The seed moves
/// the master seed, capacities, buffers and shaping parameters, not the
/// amount of generation work.
std::string make_spec(std::uint64_t seed) {
  InputRng rng(seed);
  const double edge_c = 8400 * rng.uniform(0.98, 1.02);
  const double edge_b = 2000 * rng.uniform(0.9, 1.1);
  const double agg_c = 11600 * rng.uniform(0.98, 1.02);
  const double core_c = 13600 * rng.uniform(0.98, 1.02);
  std::string s = "cts.scenario.v1\n[scenario]\nname = perfbench_lrd\n";
  s += "frames = " + std::to_string(kFrames) + "\nwarmup = " + std::to_string(kWarmup) +
       "\nreplications = " + std::to_string(kReplications) +
       "\nseed = " + std::to_string(rng.next() >> 1) + "\n";
  for (const Group& g : kGroups) {
    s += std::string("[source ") + g.name + "]\nmodel = " + g.model +
         "\ncount = " + std::to_string(g.count) + "\n";
    const std::string name = g.name;
    if (name == "bulk") s += "priority = low\n";
    if (name == "shaped") {
      s += "smooth = " + std::to_string(8 + rng.index(5)) + "\naal5 = on\n";
    }
    if (name == "policed") {
      s += "police_scr = " + fmt(13750 * rng.uniform(0.97, 1.03)) +
           "\npolice_bt = 0.08\npolice_pcr = 25000\npolice_cdvt = 0.002\n";
    }
  }
  s += "[hop edge]\ninput = video, film, bulk\ncapacity = " + fmt(edge_c) +
       "\nbuffer = " + fmt(edge_b) + "\nthreshold = " + fmt(edge_b * 0.6) + "\n";
  s += "[hop agg]\ninput = edge, shaped, policed\ncapacity = " + fmt(agg_c) +
       "\nbuffer = " + fmt(2800 * rng.uniform(0.9, 1.1)) + "\n";
  s += "[hop core]\ninput = agg, sport\ncapacity = " + fmt(core_c) +
       "\nbuffer = " + fmt(3400 * rng.uniform(0.9, 1.1)) + "\n";
  return s;
}

class ScenarioLrd final : public Workload {
 public:
  explicit ScenarioLrd(const Options& opt) : opt_(opt) {}

  void setup() override {
    spec_ = make_spec(opt_.seed);
    parsed_ = sim::parse_scenario(spec_);
    models_.clear();
    pipeline_frames_ = 0;
    for (std::size_t i = 0; i < parsed_.sources.size(); ++i) {
      const sim::ScenarioSource& g = parsed_.sources[i];
      {
        ScopedSpan span("fit.model_build");
        models_.push_back(sim::resolve_scenario_model(g.model));
      }
      if (g.smooth_window > 1 || g.aal5 || g.police_scr > 0) {
        pipeline_frames_ += g.count * kReplications * (kFrames + kWarmup);
      }
    }
    run_opts_.threads = opt_.threads;
    run_opts_.progress = false;
  }

  RoundResult round() override {
    RoundResult r;
    const double t0 = now_s();
    const sim::Scenario sc = sim::parse_scenario(spec_);
    const sim::ScenarioRunResult result = sim::run_scenario(sc, run_opts_);
    const std::string json = sim::write_scenario_result_json(sc, result);
    r.op_ms.push_back((now_s() - t0) * 1e3);
    account(r, sc, result, json);
    return r;
  }

  RoundResult traced_round() override {
    RoundResult r;
    const double t0 = now_s();
    sim::Scenario sc;
    sim::ScenarioRunResult result;
    std::string json;
    {
      ScopedSpan span("sim.scenario_parse");
      sc = sim::parse_scenario(spec_);
    }
    {
      ScopedSpan span("sim.scenario_run");
      result = sim::run_scenario(sc, run_opts_);
    }
    {
      ScopedSpan span("sim.scenario_write");
      json = sim::write_scenario_result_json(sc, result);
    }
    r.op_ms.push_back((now_s() - t0) * 1e3);
    account(r, sc, result, json);
    const double p0 = now_s();
    probes();
    r.excluded_s = now_s() - p0;
    return r;
  }

  unsigned traced_threads() const override { return opt_.threads; }

  std::vector<Check> checks() override {
    std::vector<Check> out;
    out.push_back({"scenario.repeatable_and_traced_identical", mismatches_ == 0,
                   std::to_string(mismatches_) + " report digest mismatches"});
    sim::ScenarioRunOptions one = run_opts_;
    one.threads = 1;
    const sim::Scenario sc = sim::parse_scenario(spec_);
    const sim::ScenarioRunResult single = sim::run_scenario(sc, one);
    Digest d;
    d.add(sim::write_scenario_result_json(sc, single));
    out.push_back({"scenario.digest_independent_of_threads", d.value() == digest_,
                   "report on 1 thread vs " + std::to_string(opt_.threads)});
    // Per-hop cell conservation, arrived = departed + lost + queue growth,
    // to the tolerance tests/test_scenario_run.cpp uses (each tally is a
    // long floating-point sum).
    Check conserve{"scenario.per_hop_cells_conserved", true, ""};
    for (const sim::ScenarioRepSample& s : single.samples) {
      for (std::size_t h = 0; h < s.hops.size(); ++h) {
        const sim::ScenarioHopTally& t = s.hops[h];
        const double balance =
            t.departed + t.lost() + (t.final_workload - t.initial_workload);
        if (std::abs(t.arrived() - balance) > 1e-9 * std::max(1.0, t.arrived()) ||
            t.arrived() <= 0) {
          conserve.ok = false;
          conserve.detail = "rep " + std::to_string(s.rep) + " hop " + sc.hops[h].name;
        }
      }
    }
    out.push_back(conserve);
    return out;
  }

  std::map<std::string, Metric> layer_metrics(const std::map<std::string, double>& self,
                                              std::size_t rounds) override {
    const double n = static_cast<double>(rounds);
    auto get = [&](const std::string& k) {
      const auto it = self.find(k);
      return it == self.end() ? 0.0 : it->second;
    };
    std::map<std::string, Metric> m;
    m["fit.model_build_s"] = {get("fit.model_build"), "s"};
    m["sim.scenario_parse_s"] = {get("sim.scenario_parse") / n, "s"};
    m["sim.scenario_run_s"] = {get("sim.scenario_run") / n, "s"};
    m["sim.scenario_write_s"] = {get("sim.scenario_write") / n, "s"};
    double gen = 0;
    std::map<std::string, double> family_frames;
    for (const Group& g : kGroups) {
      family_frames[g.family] +=
          static_cast<double>(g.count * kReplications * (kFrames + kWarmup));
    }
    for (const auto& [family, frames] : family_frames) {
      const double s = get("proc.gen." + family);
      gen += s;
      m["proc.ns_per_frame." + family] = {s / n / frames * 1e9, "ns"};
    }
    m["proc.gen_s"] = {gen / n, "s"};
    double frames = 0;
    for (const auto& [family, f] : family_frames) frames += f;
    m["proc.frames"] = {frames, "count"};
    const double vv15 = get("proc.gen.vv1.5");
    m["proc.ns_per_frame.vv1.5"] = {vv15 / n / kVv15Frames * 1e9, "ns"};
    m["atm.pipeline_ns_per_frame"] = {
        get("atm.pipeline") / n / static_cast<double>(pipeline_frames_) * 1e9, "ns"};
    m["atm.priority_ns_per_frame"] = {
        get("atm.priority") / n /
            static_cast<double>(kReplications * (kFrames + kWarmup)) * 1e9,
        "ns"};
    return m;
  }

 private:
  void account(RoundResult& r, const sim::Scenario& sc,
               const sim::ScenarioRunResult& result, const std::string& json) {
    r.ops = 1;
    std::size_t instances = 0;
    for (const sim::ScenarioSource& g : sc.sources) instances += g.count;
    r.items = static_cast<double>(instances * kReplications * (kFrames + kWarmup));
    Digest d;
    d.add(json);
    if (digest_ == 0) digest_ = d.value();
    if (d.value() != digest_ || result.samples.size() != kReplications) ++mismatches_;
  }

  /// Attribution probes (see file comment), on the same thread count as
  /// the executor, over the same replications and seeds.
  void probes() {
    std::atomic<std::size_t> next{0};
    const std::size_t total = kFrames + kWarmup;
    const sim::ScenarioHop& edge = parsed_.hops.front();
    auto worker = [&] {
      std::vector<double> frames(total), high(total), low(total);
      for (std::size_t rep; (rep = next.fetch_add(1)) < kReplications;) {
        cts::util::SplitMix64 seeder(sim::replication_seed_root(parsed_.seed, rep));
        std::fill(high.begin(), high.end(), 0.0);
        std::fill(low.begin(), low.end(), 0.0);
        for (std::size_t g = 0; g < parsed_.sources.size(); ++g) {
          const sim::ScenarioSource& group = parsed_.sources[g];
          for (std::size_t i = 0; i < group.count; ++i) {
            {
              ScopedSpan span(kGroups[g].gen_span);
              auto source = models_[g].make_source(seeder.next());
              for (std::size_t n = 0; n < total; ++n) {
                frames[n] = std::max(source->next_frame(), 0.0);
              }
            }
            if (std::count(edge.source_inputs.begin(), edge.source_inputs.end(), g)) {
              std::vector<double>& sum = group.low_priority ? low : high;
              for (std::size_t n = 0; n < total; ++n) sum[n] += frames[n];
            }
            if (group.smooth_window > 1 || group.aal5 || group.police_scr > 0) {
              pipeline(group, frames);
            }
          }
        }
        ScopedSpan span("atm.priority");
        double w = 0;
        for (std::size_t n = 0; n < total; ++n) {
          w = atm::evolve_priority_frame(w, high[n], low[n], edge.capacity_cells,
                                         edge.threshold_cells, edge.buffer_cells)
                  .q;
        }
        sink_ += w;
      }
    };
    {
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < opt_.threads; ++t) pool.emplace_back(worker);
      ScopedSpan wait("wait.join");
      for (std::thread& t : pool) t.join();
    }
    ScopedSpan span("proc.gen.vv1.5");
    auto source = vv15_.make_source(parsed_.seed);
    for (std::size_t n = 0; n < kVv15Frames; ++n) sink_ += source->next_frame();
  }

  /// The executor's per-copy shaping stages, in its order.
  void pipeline(const sim::ScenarioSource& group, const std::vector<double>& frames) {
    ScopedSpan span("atm.pipeline");
    std::optional<atm::FrameSmoother> smoother;
    std::optional<atm::Aal5Framer> framer;
    std::optional<atm::FramePolicer> policer;
    if (group.smooth_window > 1) smoother.emplace(group.smooth_window);
    if (group.aal5) framer.emplace();
    if (group.police_scr > 0 && group.police_pcr > 0) {
      policer.emplace(group.police_pcr, group.police_cdvt, group.police_scr,
                      group.police_bt, parsed_.Ts);
    } else if (group.police_scr > 0) {
      policer.emplace(group.police_scr, group.police_bt, parsed_.Ts);
    }
    double out = 0;
    for (std::size_t n = 0; n < frames.size(); ++n) {
      double x = frames[n];
      if (smoother) x = smoother->push(x);
      if (framer) x = framer->add(x);
      if (policer) x = policer->police(n, x);
      out += x;
    }
    sink_ += out;
  }

  Options opt_;
  std::string spec_;
  sim::Scenario parsed_;
  std::vector<fit::ModelSpec> models_;
  fit::ModelSpec vv15_ = fit::model_from_id("vv:1.5");
  sim::ScenarioRunOptions run_opts_;
  std::uint64_t digest_ = 0;
  std::size_t mismatches_ = 0;
  std::uint64_t pipeline_frames_ = 0;
  std::atomic<double> sink_{0};
};

}  // namespace

std::unique_ptr<Workload> make_scenario_lrd(const Options& opt) {
  return std::make_unique<ScenarioLrd>(opt);
}

}  // namespace perfbench
