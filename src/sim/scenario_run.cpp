#include "cts/sim/scenario_run.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>

#include "cts/atm/aal5.hpp"
#include "cts/atm/gcra.hpp"
#include "cts/atm/priority_buffer.hpp"
#include "cts/atm/smoothing.hpp"
#include "cts/core/acf_model.hpp"
#include "cts/core/heterogeneous.hpp"
#include "cts/obs/json.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/obs/progress.hpp"
#include "cts/obs/trace.hpp"
#include "cts/proc/ar1.hpp"
#include "cts/proc/gaussian_acf_source.hpp"
#include "cts/stats/batch.hpp"
#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"
#include "cts/util/rng.hpp"

namespace cu = cts::util;

namespace cts::sim {

namespace {

std::string number_text(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", x);
  return buf;
}

/// Hosking recursion order for inline LRD sources: high enough that the
/// AR approximation error is far below the CLRs a scenario resolves,
/// small enough that per-source setup stays cheap.
constexpr std::size_t kInlineLrdMaxOrder = 1024;

/// True when the group's shaping pipeline alters its cell stream, which
/// disqualifies the feeding hop from the closed-form analytics.
bool shaped(const ScenarioSource& group) {
  return group.smooth_window > 1 || group.aal5 || group.police_scr > 0.0;
}

/// One source instance's per-replication runtime state.
struct SourceRuntime {
  std::size_t group = 0;
  std::unique_ptr<proc::FrameSource> source;
  std::optional<atm::FrameSmoother> smoother;
  std::optional<atm::Aal5Framer> framer;
  std::optional<atm::FramePolicer> policer;
};

/// Static routing derived from the validated topology: where each source
/// group and each hop delivers its cells.
struct Routing {
  /// Per source group: (consumer hop index, feeds the low-priority class).
  std::vector<std::pair<std::size_t, bool>> source_sink;
  /// Per hop: downstream hop index, or npos for an egress hop.  Upstream
  /// hop departures always enter the downstream high-priority class.
  std::vector<std::size_t> hop_sink;
};

constexpr std::size_t kNoSink = static_cast<std::size_t>(-1);

Routing build_routing(const Scenario& sc) {
  Routing routing;
  routing.source_sink.assign(sc.sources.size(), {kNoSink, false});
  routing.hop_sink.assign(sc.hops.size(), kNoSink);
  for (std::size_t h = 0; h < sc.hops.size(); ++h) {
    for (std::size_t s : sc.hops[h].source_inputs) {
      routing.source_sink[s] = {h, sc.sources[s].low_priority};
    }
    for (std::size_t up : sc.hops[h].hop_inputs) {
      routing.hop_sink[up] = h;
    }
  }
  return routing;
}

/// Runs one replication of the scenario.  `trace` is non-null only for
/// global replication 0 when the spec asked for a hop trace.
ScenarioRepSample run_scenario_rep(
    const Scenario& sc, const std::vector<fit::ModelSpec>& models,
    const Routing& routing, std::size_t rep,
    std::vector<std::vector<ScenarioTraceRow>>* trace,
    obs::ProgressReporter& reporter) {
  // Same seed derivation as run_replicated: per-instance seeds drawn from
  // the replication's SplitMix64 stream in spec order, so results are
  // independent of thread and shard layout.
  cu::SplitMix64 seeder(replication_seed_root(sc.seed, rep));
  std::vector<SourceRuntime> instances;
  for (std::size_t g = 0; g < sc.sources.size(); ++g) {
    const ScenarioSource& group = sc.sources[g];
    for (std::size_t i = 0; i < group.count; ++i) {
      SourceRuntime rt;
      rt.group = g;
      rt.source = models[g].make_source(seeder.next());
      if (group.smooth_window > 1) {
        rt.smoother.emplace(static_cast<std::size_t>(group.smooth_window));
      }
      if (group.aal5) rt.framer.emplace();
      if (group.police_scr > 0.0) {
        if (group.police_pcr > 0.0) {
          rt.policer.emplace(group.police_pcr, group.police_cdvt,
                             group.police_scr, group.police_bt, sc.Ts);
        } else {
          rt.policer.emplace(group.police_scr, group.police_bt, sc.Ts);
        }
      }
      instances.push_back(std::move(rt));
    }
  }

  ScenarioRepSample sample;
  sample.rep = rep;
  sample.frames = sc.frames;
  sample.sources.resize(sc.sources.size());
  sample.hops.resize(sc.hops.size());
  for (ScenarioHopTally& tally : sample.hops) {
    tally.occupancy.assign(sc.occupancy_buckets, 0);
  }

  const std::size_t n_hops = sc.hops.size();
  std::vector<double> w(n_hops, 0.0);    // end-of-frame workloads
  std::vector<double> ah(n_hops, 0.0);   // high-priority arrivals, per frame
  std::vector<double> al(n_hops, 0.0);   // low-priority arrivals, per frame

  const std::uint64_t total = sc.warmup + sc.frames;
  constexpr std::uint64_t kProgressBatch = 4096;
  for (std::uint64_t n = 0; n < total; ++n) {
    const bool measured = n >= sc.warmup;
    std::fill(ah.begin(), ah.end(), 0.0);
    std::fill(al.begin(), al.end(), 0.0);

    for (SourceRuntime& rt : instances) {
      double x = std::max(rt.source->next_frame(), 0.0);
      if (rt.smoother) x = rt.smoother->push(x);
      if (rt.framer) x = rt.framer->add(x);
      if (rt.policer) {
        const double quantized =
            static_cast<double>(std::llround(std::max(x, 0.0)));
        const double conforming = rt.policer->police(n, x);
        if (measured) {
          sample.sources[rt.group].policed += quantized - conforming;
        }
        x = conforming;
      }
      if (measured) sample.sources[rt.group].offered += x;
      const auto [sink, low] = routing.source_sink[rt.group];
      (low ? al : ah)[sink] += x;
    }

    // Hops in topological order: upstream departures feed the downstream
    // high-priority class within the same frame.
    for (std::size_t h : sc.hop_order) {
      const ScenarioHop& hop = sc.hops[h];
      const double w0 = w[h];
      double a_high = ah[h];
      double a_low = al[h];
      double lost_high = 0.0;
      double lost_low = 0.0;
      double w1 = 0.0;
      if (hop.priority()) {
        const atm::PriorityFrameOutcome out = atm::evolve_priority_frame(
            w0, a_high, a_low, hop.capacity_cells, hop.threshold_cells,
            hop.buffer_cells);
        w1 = out.q;
        lost_high = out.high_lost;
        lost_low = out.low_lost;
      } else {
        // Class-blind FIFO: the whole frame's fluid is one aggregate,
        // tallied on the high-priority row.
        a_high += a_low;
        a_low = 0.0;
        lost_high = std::max(
            w0 + a_high - hop.capacity_cells - hop.buffer_cells, 0.0);
        w1 = std::min(hop.buffer_cells,
                      std::max(w0 + a_high - hop.capacity_cells, 0.0));
      }
      // Departures via the exact identity w0 + admitted = departed + w1,
      // which makes per-hop cell conservation hold to the last bit.
      const double admitted = a_high + a_low - lost_high - lost_low;
      const double departed = w0 + admitted - w1;
      w[h] = w1;
      if (routing.hop_sink[h] != kNoSink) ah[routing.hop_sink[h]] += departed;

      if (!measured) continue;
      ScenarioHopTally& tally = sample.hops[h];
      if (n == sc.warmup) tally.initial_workload = w0;
      tally.arrived_high += a_high;
      tally.arrived_low += a_low;
      tally.lost_high += lost_high;
      tally.lost_low += lost_low;
      tally.departed += departed;
      tally.peak_workload = std::max(tally.peak_workload, w1);
      tally.final_workload = w1;
      std::size_t bucket = 0;
      if (hop.buffer_cells > 0.0) {
        bucket = static_cast<std::size_t>(
            w1 / hop.buffer_cells * static_cast<double>(sc.occupancy_buckets));
        bucket = std::min(bucket, sc.occupancy_buckets - 1);
      }
      ++tally.occupancy[bucket];
      if (trace != nullptr && (n - sc.warmup) % sc.hop_trace_every == 0) {
        ScenarioTraceRow row;
        row.frame = n - sc.warmup;
        row.workload = w1;
        row.arrived = a_high + a_low;
        row.lost = lost_high + lost_low;
        (*trace)[h].push_back(row);
      }
    }

    if ((n + 1) % kProgressBatch == 0) reporter.add_frames(kProgressBatch);
  }
  reporter.add_frames(total % kProgressBatch);

  // Accumulate-then-reduce: fold every instance's shaping-pipeline meters
  // and the per-hop tallies into one shard, merged into the global
  // registry once per replication.
  obs::MetricsShard shard;
  for (SourceRuntime& rt : instances) {
    if (rt.smoother) rt.smoother->flush(shard);
    if (rt.framer) rt.framer->flush(shard);
    if (rt.policer) rt.policer->flush(shard);
  }
  double arrived = 0.0;
  double lost = 0.0;
  double departed = 0.0;
  for (std::size_t h = 0; h < n_hops; ++h) {
    const ScenarioHopTally& tally = sample.hops[h];
    arrived += tally.arrived();
    lost += tally.lost();
    departed += tally.departed;
    if (sc.hops[h].priority()) {
      shard.add("atm.priority.frames", sc.frames);
      shard.add_sum("atm.priority.high_arrived", tally.arrived_high);
      shard.add_sum("atm.priority.high_lost", tally.lost_high);
      shard.add_sum("atm.priority.low_arrived", tally.arrived_low);
      shard.add_sum("atm.priority.low_lost", tally.lost_low);
    }
  }
  shard.add("scenario.replications", 1);
  shard.add_sum("scenario.arrived_cells", arrived);
  shard.add_sum("scenario.lost_cells", lost);
  shard.add_sum("scenario.departed_cells", departed);
  obs::MetricsRegistry::global().merge(shard);
  return sample;
}

}  // namespace

fit::ModelSpec resolve_scenario_model(const ScenarioModel& model) {
  if (!model.zoo_id.empty()) return fit::model_from_id(model.zoo_id);
  fit::ModelSpec spec;
  spec.mean = model.mean;
  spec.variance = model.variance;
  const std::string moments =
      "mu=" + number_text(model.mean) + ",var=" + number_text(model.variance);
  if (model.kind == "geometric") {
    spec.acf = std::make_shared<core::GeometricAcf>(model.a);
    spec.name = "geometric(a=" + number_text(model.a) + "," + moments + ")";
    const proc::Ar1Params params{model.a, model.mean, model.variance};
    spec.make_source = [params](std::uint64_t seed) {
      return std::make_unique<proc::Ar1Source>(params, seed);
    };
  } else if (model.kind == "white") {
    spec.acf = std::make_shared<core::WhiteAcf>();
    spec.name = "white(" + moments + ")";
    const proc::Ar1Params params{0.0, model.mean, model.variance};
    spec.make_source = [params](std::uint64_t seed) {
      return std::make_unique<proc::Ar1Source>(params, seed);
    };
  } else if (model.kind == "lrd") {
    auto acf = std::make_shared<core::ExactLrdAcf>(model.hurst, model.weight);
    spec.acf = acf;
    spec.name = "lrd(H=" + number_text(model.hurst) +
                ",w=" + number_text(model.weight) + "," + moments + ")";
    const double mean = model.mean;
    const double variance = model.variance;
    spec.make_source = [acf, mean, variance](std::uint64_t seed) {
      return std::make_unique<proc::GaussianAcfHosking>(
          acf, mean, variance, seed, kInlineLrdMaxOrder);
    };
  } else {
    // The parser only admits the three kinds above; this guards direct
    // programmatic construction.
    throw cu::InvalidArgument("scenario: unknown model kind '" + model.kind +
                              "'");
  }
  return spec;
}

ScenarioRunResult run_scenario(const Scenario& scenario,
                               const ScenarioRunOptions& options) {
  CTS_TRACE_SPAN("scenario.run");
  cu::require(!scenario.sources.empty() && !scenario.hops.empty(),
              "run_scenario: scenario has no sources or no hops");

  // Resolve every model once; make_source factories are shared across the
  // pool threads (the same contract run_replicated relies on).
  std::vector<fit::ModelSpec> models;
  models.reserve(scenario.sources.size());
  std::size_t source_instances = 0;
  for (const ScenarioSource& group : scenario.sources) {
    models.push_back(resolve_scenario_model(group.model));
    cu::require(models.back().make_source != nullptr,
                "run_scenario: model '" + models.back().name +
                    "' has no simulation factory");
    source_instances += group.count;
  }
  const Routing routing = build_routing(scenario);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.gauge("scenario.hops", static_cast<double>(scenario.hops.size()));
  registry.gauge("scenario.source_instances",
                 static_cast<double>(source_instances));

  ScenarioRunResult result;
  result.shard_index = options.shard_index;
  result.shard_count = options.shard_count;
  const ShardSliceRange slice = shard_slice(
      scenario.replications, options.shard_index, options.shard_count);
  result.samples.resize(slice.size());
  const bool want_trace = scenario.hop_trace_every > 0 && slice.lo == 0;
  if (want_trace) result.traces.resize(scenario.hops.size());

  SliceDriverConfig driver;
  driver.replications = scenario.replications;
  driver.frames_per_replication = scenario.frames;
  driver.warmup_frames = scenario.warmup;
  driver.master_seed = scenario.seed;
  driver.threads = options.threads;
  driver.shard_index = options.shard_index;
  driver.shard_count = options.shard_count;
  driver.progress_label = scenario.name;
  driver.progress = options.progress;

  run_replication_slice(
      driver, [&](std::size_t rep, std::size_t local,
                  obs::ProgressReporter& reporter) {
        auto* trace = (want_trace && rep == 0) ? &result.traces : nullptr;
        result.samples[local] =
            run_scenario_rep(scenario, models, routing, rep, trace, reporter);
      });
  return result;
}

std::vector<ScenarioHopAnalytic> scenario_analytics(const Scenario& scenario) {
  std::vector<fit::ModelSpec> models;
  models.reserve(scenario.sources.size());
  for (const ScenarioSource& group : scenario.sources) {
    models.push_back(resolve_scenario_model(group.model));
  }
  std::vector<ScenarioHopAnalytic> out(scenario.hops.size());
  for (std::size_t h = 0; h < scenario.hops.size(); ++h) {
    const ScenarioHop& hop = scenario.hops[h];
    if (!hop.hop_inputs.empty() || hop.priority()) continue;
    std::vector<core::PopulationClass> classes;
    bool qualifies = true;
    for (std::size_t s : hop.source_inputs) {
      const ScenarioSource& group = scenario.sources[s];
      if (shaped(group)) {
        qualifies = false;
        break;
      }
      core::PopulationClass cls;
      cls.acf = models[s].acf;
      cls.mean = models[s].mean;
      cls.variance = models[s].variance;
      cls.count = group.count;
      classes.push_back(std::move(cls));
    }
    if (!qualifies) continue;
    try {
      const core::BopPoint point = core::heterogeneous_br_log10_bop(
          classes, hop.capacity_cells, hop.buffer_cells);
      out[h].available = true;
      out[h].log10_bop = point.log10_bop;
      out[h].critical_m = point.critical_m;
      out[h].rate = point.rate;
    } catch (const std::exception&) {
      // Unstable aggregate or degenerate corner: report no prediction
      // rather than failing the whole run.
      out[h].available = false;
    }
  }
  return out;
}

namespace {

void write_interval(obs::JsonWriter& w, const stats::IntervalEstimate& e) {
  w.begin_object();
  w.key("mean").value(e.mean);
  w.key("half_width").value(e.half_width);
  w.key("samples").value(static_cast<std::uint64_t>(e.samples));
  w.end_object();
}

std::uint64_t parse_u64_field(const obs::JsonValue& v, const char* what) {
  if (v.is_string()) {
    const std::string& s = v.as_string();
    std::uint64_t out = 0;
    cu::require(cu::try_parse_u64(s, &out),
                std::string("scenario result: ") + what +
                    " must be a decimal string, got '" + s + "'");
    return out;
  }
  return v.as_uint(std::string("scenario result: ") + what);
}

double nonneg_number(const obs::JsonValue& v, const char* what) {
  const double x = v.as_number();
  cu::require(std::isfinite(x) && x >= 0.0,
              std::string("scenario result: ") + what +
                  " must be finite and >= 0");
  return x;
}

/// The "every" / "rep" / "hops" members of a hop trace, shared by the
/// result document's "trace" section and the standalone trace document.
/// Callers check that `result.traces` has one entry per hop.
void write_hop_trace(obs::JsonWriter& w, const Scenario& scenario,
                     const ScenarioRunResult& result) {
  w.key("every").value(scenario.hop_trace_every);
  w.key("rep").value(static_cast<std::uint64_t>(0));
  w.key("hops").begin_array();
  for (std::size_t h = 0; h < scenario.hops.size(); ++h) {
    w.begin_object();
    w.key("name").value(scenario.hops[h].name);
    w.key("frames").begin_array();
    for (const ScenarioTraceRow& row : result.traces[h]) w.value(row.frame);
    w.end_array();
    w.key("workload").begin_array();
    for (const ScenarioTraceRow& row : result.traces[h]) w.value(row.workload);
    w.end_array();
    w.key("arrived").begin_array();
    for (const ScenarioTraceRow& row : result.traces[h]) w.value(row.arrived);
    w.end_array();
    w.key("lost").begin_array();
    for (const ScenarioTraceRow& row : result.traces[h]) w.value(row.lost);
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

}  // namespace

std::string write_scenario_result_json(const Scenario& scenario,
                                       const ScenarioRunResult& result) {
  cu::require(!result.samples.empty(),
              "write_scenario_result_json: no replication samples");
  const std::size_t n_sources = scenario.sources.size();
  const std::size_t n_hops = scenario.hops.size();
  for (const ScenarioRepSample& sample : result.samples) {
    cu::require(sample.sources.size() == n_sources &&
                    sample.hops.size() == n_hops,
                "write_scenario_result_json: sample tally shape does not "
                "match the scenario");
  }

  std::vector<fit::ModelSpec> models;
  models.reserve(n_sources);
  for (const ScenarioSource& group : scenario.sources) {
    models.push_back(resolve_scenario_model(group.model));
  }
  const std::vector<ScenarioHopAnalytic> analytics =
      scenario_analytics(scenario);

  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kScenarioResultSchema);
  w.key("scenario").value(scenario.name);
  w.key("shard").begin_object();
  w.key("index").value(static_cast<std::uint64_t>(result.shard_index));
  w.key("count").value(static_cast<std::uint64_t>(result.shard_count));
  w.end_object();
  w.key("replications").value(static_cast<std::uint64_t>(
      scenario.replications));
  w.key("frames").value(scenario.frames);
  w.key("warmup").value(scenario.warmup);
  // Decimal string: a JSON number (double) silently rounds seeds >= 2^53.
  w.key("seed").value(std::to_string(scenario.seed));
  w.key("Ts").value(scenario.Ts);

  w.key("sources").begin_array();
  for (std::size_t g = 0; g < n_sources; ++g) {
    double offered = 0.0;
    double policed = 0.0;
    for (const ScenarioRepSample& sample : result.samples) {
      offered += sample.sources[g].offered;
      policed += sample.sources[g].policed;
    }
    w.begin_object();
    w.key("name").value(scenario.sources[g].name);
    w.key("model").value(models[g].name);
    w.key("count").value(static_cast<std::uint64_t>(
        scenario.sources[g].count));
    w.key("offered_cells").value(offered);
    w.key("policed_cells").value(policed);
    w.end_object();
  }
  w.end_array();

  w.key("hops").begin_array();
  for (std::size_t h = 0; h < n_hops; ++h) {
    const ScenarioHop& hop = scenario.hops[h];
    double arrived_high = 0.0;
    double arrived_low = 0.0;
    double lost_high = 0.0;
    double lost_low = 0.0;
    double departed = 0.0;
    double peak = 0.0;
    std::vector<std::uint64_t> occupancy(scenario.occupancy_buckets, 0);
    std::vector<double> clr_samples;
    clr_samples.reserve(result.samples.size());
    for (const ScenarioRepSample& sample : result.samples) {
      const ScenarioHopTally& tally = sample.hops[h];
      cu::require(tally.occupancy.size() == occupancy.size(),
                  "write_scenario_result_json: occupancy bucket count does "
                  "not match the scenario");
      arrived_high += tally.arrived_high;
      arrived_low += tally.arrived_low;
      lost_high += tally.lost_high;
      lost_low += tally.lost_low;
      departed += tally.departed;
      peak = std::max(peak, tally.peak_workload);
      for (std::size_t b = 0; b < occupancy.size(); ++b) {
        occupancy[b] += tally.occupancy[b];
      }
      clr_samples.push_back(
          tally.arrived() > 0.0 ? tally.lost() / tally.arrived() : 0.0);
    }
    const double arrived = arrived_high + arrived_low;
    const double lost = lost_high + lost_low;

    w.begin_object();
    w.key("name").value(hop.name);
    w.key("capacity_cells").value(hop.capacity_cells);
    w.key("buffer_cells").value(hop.buffer_cells);
    if (hop.priority()) w.key("threshold_cells").value(hop.threshold_cells);
    w.key("arrived_cells").value(arrived);
    w.key("lost_cells").value(lost);
    w.key("departed_cells").value(departed);
    if (hop.priority()) {
      w.key("high").begin_object();
      w.key("arrived_cells").value(arrived_high);
      w.key("lost_cells").value(lost_high);
      w.key("clr").value(arrived_high > 0.0 ? lost_high / arrived_high : 0.0);
      w.end_object();
      w.key("low").begin_object();
      w.key("arrived_cells").value(arrived_low);
      w.key("lost_cells").value(lost_low);
      w.key("clr").value(arrived_low > 0.0 ? lost_low / arrived_low : 0.0);
      w.end_object();
    }
    w.key("clr");
    write_interval(w, stats::replication_interval(clr_samples));
    w.key("pooled_clr").value(arrived > 0.0 ? lost / arrived : 0.0);
    w.key("peak_workload_cells").value(peak);
    w.key("occupancy").begin_object();
    w.key("edges").begin_array();
    for (std::size_t b = 0; b < occupancy.size(); ++b) {
      w.value(hop.buffer_cells * static_cast<double>(b + 1) /
              static_cast<double>(occupancy.size()));
    }
    w.end_array();
    w.key("counts").begin_array();
    for (std::uint64_t count : occupancy) w.value(count);
    w.end_array();
    w.end_object();
    if (analytics[h].available) {
      w.key("analytic").begin_object();
      w.key("log10_bop").value(analytics[h].log10_bop);
      w.key("critical_m").value(static_cast<std::uint64_t>(
          analytics[h].critical_m));
      w.key("rate").value(analytics[h].rate);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  w.key("reps").begin_array();
  for (const ScenarioRepSample& sample : result.samples) {
    w.begin_object();
    w.key("rep").value(sample.rep);
    w.key("frames").value(sample.frames);
    w.key("sources").begin_array();
    for (const ScenarioSourceTally& tally : sample.sources) {
      w.begin_object();
      w.key("offered").value(tally.offered);
      w.key("policed").value(tally.policed);
      w.end_object();
    }
    w.end_array();
    w.key("hops").begin_array();
    for (const ScenarioHopTally& tally : sample.hops) {
      w.begin_object();
      w.key("arrived_high").value(tally.arrived_high);
      w.key("arrived_low").value(tally.arrived_low);
      w.key("lost_high").value(tally.lost_high);
      w.key("lost_low").value(tally.lost_low);
      w.key("departed").value(tally.departed);
      w.key("peak").value(tally.peak_workload);
      w.key("initial").value(tally.initial_workload);
      w.key("final").value(tally.final_workload);
      w.key("occupancy").begin_array();
      for (std::uint64_t count : tally.occupancy) w.value(count);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  if (!result.traces.empty()) {
    cu::require(result.traces.size() == n_hops,
                "write_scenario_result_json: trace hop count does not match "
                "the scenario");
    w.key("trace").begin_object();
    write_hop_trace(w, scenario, result);
    w.end_object();
  }

  // Verbatim spec last: the bulky field stays out of the way of readers
  // scanning the aggregates.
  w.key("spec").value(scenario.text);
  w.end_object();
  os << "\n";
  return os.str();
}

std::string write_scenario_trace_json(const Scenario& scenario,
                                      const ScenarioRunResult& result) {
  cu::require(!result.traces.empty(),
              "write_scenario_trace_json: the run carried no hop trace "
              "(hop_trace_every = 0 or the slice did not contain "
              "replication 0)");
  cu::require(result.traces.size() == scenario.hops.size(),
              "write_scenario_trace_json: trace hop count does not match "
              "the scenario");
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kScenarioTraceSchema);
  w.key("scenario").value(scenario.name);
  write_hop_trace(w, scenario, result);
  w.end_object();
  os << "\n";
  return os.str();
}

ScenarioResultDoc parse_scenario_result(const std::string& text) {
  const obs::JsonValue doc = obs::json_parse(text);
  cu::require(doc.is_object(), "scenario result: top level must be an object");
  cu::require(doc.at("schema").as_string() == kScenarioResultSchema,
              "scenario result: schema must be '" +
                  std::string(kScenarioResultSchema) + "', got '" +
                  doc.at("schema").as_string() + "'");
  ScenarioResultDoc out;
  out.spec_text = doc.at("spec").as_string();
  cu::require(!out.spec_text.empty(), "scenario result: empty spec echo");
  const obs::JsonValue& shard = doc.at("shard");
  out.shard_index =
      static_cast<std::size_t>(parse_u64_field(shard.at("index"), "shard index"));
  out.shard_count =
      static_cast<std::size_t>(parse_u64_field(shard.at("count"), "shard count"));
  cu::require(out.shard_count >= 1 && out.shard_index < out.shard_count,
              "scenario result: shard index " +
                  std::to_string(out.shard_index) + " out of range for " +
                  std::to_string(out.shard_count) + " shards");
  out.replications = static_cast<std::size_t>(
      parse_u64_field(doc.at("replications"), "replications"));
  cu::require(out.replications >= 1,
              "scenario result: need at least one replication");
  out.frames = parse_u64_field(doc.at("frames"), "frames");
  out.warmup = parse_u64_field(doc.at("warmup"), "warmup");
  out.seed = parse_u64_field(doc.at("seed"), "seed");

  const obs::JsonValue& reps = doc.at("reps");
  cu::require(reps.is_array() && !reps.items.empty(),
              "scenario result: reps must be a non-empty array");
  for (const obs::JsonValue& entry : reps.items) {
    cu::require(entry.is_object(), "scenario result: each rep must be an "
                                   "object");
    ScenarioRepSample sample;
    sample.rep = parse_u64_field(entry.at("rep"), "rep index");
    sample.frames = parse_u64_field(entry.at("frames"), "rep frames");
    for (const obs::JsonValue& src : entry.at("sources").items) {
      ScenarioSourceTally tally;
      tally.offered = nonneg_number(src.at("offered"), "source offered");
      tally.policed = nonneg_number(src.at("policed"), "source policed");
      sample.sources.push_back(tally);
    }
    for (const obs::JsonValue& hop : entry.at("hops").items) {
      ScenarioHopTally tally;
      tally.arrived_high = nonneg_number(hop.at("arrived_high"),
                                         "hop arrived_high");
      tally.arrived_low = nonneg_number(hop.at("arrived_low"),
                                        "hop arrived_low");
      tally.lost_high = nonneg_number(hop.at("lost_high"), "hop lost_high");
      tally.lost_low = nonneg_number(hop.at("lost_low"), "hop lost_low");
      tally.departed = nonneg_number(hop.at("departed"), "hop departed");
      tally.peak_workload = nonneg_number(hop.at("peak"), "hop peak");
      tally.initial_workload = nonneg_number(hop.at("initial"), "hop initial");
      tally.final_workload = nonneg_number(hop.at("final"), "hop final");
      for (const obs::JsonValue& count : hop.at("occupancy").items) {
        tally.occupancy.push_back(parse_u64_field(count, "occupancy count"));
      }
      sample.hops.push_back(std::move(tally));
    }
    if (!out.samples.empty()) {
      const ScenarioRepSample& prev = out.samples.back();
      cu::require(sample.rep > prev.rep,
                  "scenario result: reps must be ascending by global index");
      cu::require(sample.sources.size() == prev.sources.size() &&
                      sample.hops.size() == prev.hops.size(),
                  "scenario result: inconsistent tally shapes across reps");
    }
    out.samples.push_back(std::move(sample));
  }

  if (const obs::JsonValue* trace = doc.find("trace")) {
    const obs::JsonValue& hops = trace->at("hops");
    cu::require(hops.is_array() &&
                    hops.items.size() == out.samples.front().hops.size(),
                "scenario result: trace hop count does not match the rep "
                "tallies");
    for (const obs::JsonValue& hop : hops.items) {
      const obs::JsonValue& frames = hop.at("frames");
      const obs::JsonValue& workload = hop.at("workload");
      const obs::JsonValue& arrived = hop.at("arrived");
      const obs::JsonValue& lost = hop.at("lost");
      cu::require(workload.items.size() == frames.items.size() &&
                      arrived.items.size() == frames.items.size() &&
                      lost.items.size() == frames.items.size(),
                  "scenario result: trace column lengths disagree");
      std::vector<ScenarioTraceRow> rows;
      rows.reserve(frames.items.size());
      for (std::size_t i = 0; i < frames.items.size(); ++i) {
        ScenarioTraceRow row;
        row.frame = parse_u64_field(frames.items[i], "trace frame");
        row.workload = workload.items[i].as_number();
        row.arrived = arrived.items[i].as_number();
        row.lost = lost.items[i].as_number();
        rows.push_back(row);
      }
      out.traces.push_back(std::move(rows));
    }
  }
  return out;
}

std::string merge_scenario_result_json(
    const std::vector<ScenarioResultDoc>& parts) {
  cu::require(!parts.empty(), "scenario merge: no partials given");
  const ScenarioResultDoc& first = parts.front();
  cu::require(parts.size() == first.shard_count,
              "scenario merge: got " + std::to_string(parts.size()) +
                  " partials for a " + std::to_string(first.shard_count) +
                  "-shard run");
  std::vector<const ScenarioResultDoc*> ordered(first.shard_count, nullptr);
  for (const ScenarioResultDoc& part : parts) {
    cu::require(part.spec_text == first.spec_text,
                "scenario merge: partials ran different scenario specs");
    cu::require(part.shard_count == first.shard_count &&
                    part.replications == first.replications &&
                    part.frames == first.frames &&
                    part.warmup == first.warmup && part.seed == first.seed,
                "scenario merge: partials disagree on the run configuration");
    cu::require(ordered[part.shard_index] == nullptr,
                "scenario merge: duplicate shard index " +
                    std::to_string(part.shard_index));
    ordered[part.shard_index] = &part;
  }

  Scenario scenario = parse_scenario(first.spec_text);
  scenario.replications = first.replications;
  scenario.frames = first.frames;
  scenario.warmup = first.warmup;
  scenario.seed = first.seed;

  ScenarioRunResult merged;
  merged.shard_index = 0;
  merged.shard_count = 1;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const ScenarioResultDoc& part = *ordered[i];
    const ShardSliceRange slice =
        shard_slice(first.replications, i, first.shard_count);
    cu::require(part.samples.size() == slice.size() &&
                    part.samples.front().rep == slice.lo &&
                    part.samples.back().rep + 1 == slice.hi,
                "scenario merge: shard " + std::to_string(i) +
                    " does not cover its replication slice [" +
                    std::to_string(slice.lo) + ", " +
                    std::to_string(slice.hi) + ")");
    for (const ScenarioRepSample& sample : part.samples) {
      merged.samples.push_back(sample);
    }
    if (!part.traces.empty()) {
      cu::require(merged.traces.empty(),
                  "scenario merge: more than one partial carries a trace");
      merged.traces = part.traces;
    }
  }
  return write_scenario_result_json(scenario, merged);
}

}  // namespace cts::sim
