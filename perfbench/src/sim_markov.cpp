// sim_markov: the Fig 9 Markov-efficacy simulation.  One op is one
// sim::simulated_clr_curve (-> run_replicated -> FluidMux) for N = 30
// sources at c = 520 over a small buffer grid; items are source-frames.
//
// The generators here (DAR(p) matched to Z^a, AR(1), white) cost ~20 ns
// a frame, so no LRD generation cost hides the mux recursion and the
// replication harness; the traced run reports how the work splits.
//
// The traced round cannot time generation inside FluidMux::run from
// outside, so it pre-generates each replication's frames through the
// model's sources (proc) and replays them into FluidMux::run through a
// ReplayFrameSource (sim), then aggregates (sim).  Its curves must equal
// the untraced ones bit for bit.

#include <atomic>
#include <cstring>
#include <thread>

#include "cts/sim/curves.hpp"
#include "cts/sim/replication.hpp"
#include "cts/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sim = cts::sim;
namespace fit = cts::fit;
namespace proc = cts::proc;

constexpr std::size_t kSources = 30;
constexpr double kBandwidth = 520.0;
constexpr std::size_t kBuffers = 10;
constexpr std::size_t kReplications = 8;
constexpr std::uint64_t kFrames = 40000;
constexpr std::uint64_t kWarmup = 1000;

/// Replays one pre-generated frame row.
class ReplayFrameSource final : public proc::FrameSource {
 public:
  explicit ReplayFrameSource(const double* frames) : frames_(frames) {}
  double next_frame() override { return frames_[next_++]; }
  double mean() const override { return 0.0; }
  double variance() const override { return 0.0; }
  std::unique_ptr<FrameSource> clone(std::uint64_t) const override {
    return std::make_unique<ReplayFrameSource>(frames_);
  }
  std::string name() const override { return "replay"; }

 private:
  const double* frames_;
  std::size_t next_ = 0;
};

struct Model {
  const char* family;    ///< metric suffix: dar1, ar1, white, ...
  const char* gen_span;  ///< "proc.gen.<family>"; a literal, as spans keep it
  fit::ModelSpec spec;
};

std::uint64_t digest_of(const sim::SimulatedCurve& c) {
  Digest d;
  for (const auto* v : {&c.clr, &c.ci_low, &c.ci_high}) {
    for (const double x : *v) d.add(x);
  }
  d.add(c.total_frames);
  return d.value();
}

/// The sources of global replication `rep`, seeded as run_replicated
/// seeds them.
std::vector<std::unique_ptr<proc::FrameSource>> make_sources(
    const fit::ModelSpec& model, std::uint64_t master_seed, std::size_t rep) {
  cts::util::SplitMix64 seeder(sim::replication_seed_root(master_seed, rep));
  std::vector<std::unique_ptr<proc::FrameSource>> sources;
  for (std::size_t s = 0; s < kSources; ++s) {
    sources.push_back(model.make_source(seeder.next()));
  }
  return sources;
}

class SimMarkov final : public Workload {
 public:
  explicit SimMarkov(const Options& opt) : opt_(opt) {}

  void setup() override {
    InputRng rng(opt_.seed);
    const double a = rng.uniform(0.88, 0.92);
    models_.clear();
    {
      ScopedSpan span("fit.model_build");
      models_.push_back({"dar1", "proc.gen.dar1", fit::make_dar_matched_to_za(a, 1)});
      models_.push_back({"dar2", "proc.gen.dar2", fit::make_dar_matched_to_za(a, 2)});
      models_.push_back({"dar3", "proc.gen.dar3", fit::make_dar_matched_to_za(a, 3)});
      models_.push_back({"ar1", "proc.gen.ar1", fit::make_ar1(rng.uniform(0.9, 0.95))});
      models_.push_back({"white", "proc.gen.white", fit::make_white()});
    }
    geometry_.n_sources = kSources;
    geometry_.bandwidth_per_source = kBandwidth;
    grid_ = sim::buffer_grid_ms(rng.uniform(0.5, 0.55), rng.uniform(38, 40), kBuffers);
    scale_ = sim::ReplicationConfig{};
    scale_.replications = kReplications;
    scale_.frames_per_replication = kFrames;
    scale_.warmup_frames = kWarmup;
    scale_.master_seed = rng.next();
    scale_.threads = opt_.threads;
    scale_.progress = false;
  }

  RoundResult round() override {
    RoundResult r;
    std::vector<std::uint64_t> digests;
    for (const Model& m : models_) {
      const double t0 = now_s();
      const sim::SimulatedCurve curve =
          sim::simulated_clr_curve(m.spec, geometry_, grid_, scale_);
      r.op_ms.push_back((now_s() - t0) * 1e3);
      digests.push_back(digest_of(curve));
    }
    account(r, digests);
    return r;
  }

  RoundResult traced_round() override {
    RoundResult r;
    std::vector<std::uint64_t> digests;
    for (const Model& m : models_) {
      const double t0 = now_s();
      digests.push_back(digest_of(decomposed(m)));
      r.op_ms.push_back((now_s() - t0) * 1e3);
    }
    account(r, digests);
    return r;
  }

  unsigned traced_threads() const override { return opt_.threads; }

  std::vector<Check> checks() override {
    std::vector<Check> out;
    out.push_back({"sim_markov.repeatable_and_traced_identical", mismatches_ == 0,
                   std::to_string(mismatches_) + " curve digest mismatches"});

    // Thread-count independence: the same seed gives the same curves on
    // one thread as on opt.threads.
    Check threads{"sim_markov.digest_independent_of_threads", true, ""};
    sim::ReplicationConfig one = scale_;
    one.threads = 1;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      const std::uint64_t d =
          digest_of(sim::simulated_clr_curve(models_[i].spec, geometry_, grid_, one));
      if (d != digests_[i]) {
        threads.ok = false;
        threads.detail = std::string(models_[i].family) + " differs on 1 thread";
      }
    }
    out.push_back(threads);

    // Conservation at the mux input: the cells the mux counted as arrived
    // are exactly the cells the sources emitted (same summation order and
    // compensation as FluidMux), and losses are bounded by arrivals and
    // non-increasing in the buffer size.
    Check conserve{"sim_markov.cells_conserved", true, ""};
    for (const Model& m : models_) {
      const sim::ReplicationConfig config =
          sim::replication_config_for_grid(m.spec, geometry_, grid_, scale_);
      const sim::ReplicationResult result = sim::run_replicated(m.spec, config);
      const sim::ReplicationSample& s0 = result.samples.front();
      auto sources = make_sources(m.spec, scale_.master_seed, s0.rep);
      double arrived = 0, comp = 0;
      for (std::uint64_t n = 0; n < kWarmup + kFrames; ++n) {
        double a = 0;
        for (auto& src : sources) a += src->next_frame();
        if (n < kWarmup) continue;
        const double y = a - comp;
        const double t = arrived + y;
        comp = (t - arrived) - y;
        arrived = t;
      }
      bool ok = std::memcmp(&arrived, &s0.run.arrived_cells, sizeof arrived) == 0;
      for (const sim::ReplicationSample& s : result.samples) {
        for (std::size_t k = 0; k < s.run.clr.size(); ++k) {
          const double lost = s.run.clr[k].lost_cells;
          if (lost < 0 || lost > s.run.arrived_cells ||
              (k > 0 && lost > s.run.clr[k - 1].lost_cells)) {
            ok = false;
          }
        }
      }
      if (!ok) {
        conserve.ok = false;
        conserve.detail = m.family;
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
    const double source_frames =
        static_cast<double>(kSources * kReplications * (kFrames + kWarmup));
    double gen = 0;
    for (const Model& model : models_) {
      const double s = get(model.gen_span);
      gen += s;
      m[std::string("proc.ns_per_frame.") + model.family] = {s / n / source_frames * 1e9,
                                                             "ns"};
    }
    m["proc.gen_s"] = {gen / n, "s"};
    m["proc.frames"] = {source_frames * static_cast<double>(models_.size()), "count"};
    const double mux = get("sim.mux");
    m["sim.mux_s"] = {mux / n, "s"};
    const double frame_buffers = static_cast<double>(
        models_.size() * kReplications * (kFrames + kWarmup) * kBuffers);
    m["sim.mux_ns_per_frame_buffer"] = {mux / n / frame_buffers * 1e9, "ns"};
    m["sim.aggregate_s"] = {get("sim.aggregate") / n, "s"};
    m["sim.thread_util"] = {busy_ / (curve_wall_ * opt_.threads), "ratio"};
    return m;
  }

 private:
  /// simulated_clr_curve split at the layer boundaries (see file comment).
  sim::SimulatedCurve decomposed(const Model& m) {
    const sim::ReplicationConfig config =
        sim::replication_config_for_grid(m.spec, geometry_, grid_, scale_);
    std::vector<sim::ReplicationSample> samples(kReplications);
    std::vector<double> busy(opt_.threads, 0.0);
    std::atomic<std::size_t> next{0};
    const double t0 = now_s();
    auto worker = [&](unsigned t) {
      std::vector<double> frames(kSources * (kFrames + kWarmup));
      for (std::size_t rep; (rep = next.fetch_add(1)) < kReplications;) {
        const double w0 = now_s();
        {
          ScopedSpan span(m.gen_span);
          auto sources = make_sources(m.spec, config.master_seed, rep);
          // Each source's frames in its own row, [s * total + n]: every
          // source draws its own stream, so the order across sources
          // does not change the values.
          const std::size_t total = kFrames + kWarmup;
          for (std::size_t s = 0; s < kSources; ++s) {
            for (std::size_t n = 0; n < total; ++n) {
              frames[s * total + n] = sources[s]->next_frame();
            }
          }
        }
        {
          ScopedSpan span("sim.mux");
          std::vector<std::unique_ptr<proc::FrameSource>> replay;
          for (std::size_t s = 0; s < kSources; ++s) {
            replay.push_back(
                std::make_unique<ReplayFrameSource>(&frames[s * (kFrames + kWarmup)]));
          }
          sim::FluidRunConfig run;
          run.frames = config.frames_per_replication;
          run.warmup_frames = config.warmup_frames;
          run.capacity_cells = config.capacity_cells;
          run.buffer_sizes_cells = config.buffer_sizes_cells;
          run.bop_thresholds_cells = config.bop_thresholds_cells;
          samples[rep].rep = rep;
          samples[rep].run = sim::FluidMux::run(replay, run);
        }
        busy[t] += now_s() - w0;
      }
    };
    {
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < opt_.threads; ++t) pool.emplace_back(worker, t);
      ScopedSpan wait("wait.join");
      for (std::thread& t : pool) t.join();
    }
    sim::SimulatedCurve curve;
    {
      ScopedSpan span("sim.aggregate");
      const sim::ReplicationResult result = sim::aggregate_replications(
          config.buffer_sizes_cells, config.bop_thresholds_cells, std::move(samples));
      curve.model = m.spec.name;
      curve.buffer_ms = grid_;
      curve.total_frames = result.total_frames;
      curve.replications = config.replications;
      for (const sim::ClrEstimate& est : result.clr) {
        curve.clr.push_back(est.pooled_clr);
        curve.ci_low.push_back(std::max(est.clr.low(), 0.0));
        curve.ci_high.push_back(est.clr.high());
      }
    }
    curve_wall_ += now_s() - t0;
    for (const double b : busy) busy_ += b;
    return curve;
  }

  void account(RoundResult& r, const std::vector<std::uint64_t>& digests) {
    r.ops = models_.size();
    r.items = static_cast<double>(models_.size() * kSources * kReplications *
                                  (kFrames + kWarmup));
    if (digests_.empty()) digests_ = digests;
    if (digests != digests_) ++mismatches_;
  }

  Options opt_;
  std::vector<Model> models_;
  sim::MuxGeometry geometry_;
  std::vector<double> grid_;
  sim::ReplicationConfig scale_;
  std::vector<std::uint64_t> digests_;
  std::size_t mismatches_ = 0;
  double busy_ = 0;
  double curve_wall_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sim_markov(const Options& opt) {
  return std::make_unique<SimMarkov>(opt);
}

}  // namespace perfbench
