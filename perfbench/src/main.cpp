// cts_perfbench: runs one perfbench workload and prints one JSON record.
//
//   cts_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 --threads=T --work-dir=DIR --cacd=PATH
//
// Protocol of one run:
//   1. one set-up and one untimed warm-up round (lazy set-up, page cache,
//      code);
//   2. a timed set-up batch then a fixed-work round, with tracing off,
//      until the time budget is spent (half of it with --trace=1); the
//      end-to-end metrics are medians over these;
//   3. with --trace=1, one traced set-up, then set-up batches and traced
//      rounds for the other half; the per-layer metrics come from the
//      rounds' spans;
//   4. the output checks.
// The record is one JSON line on stdout; perfbench/run.py turns it into
// the benchmark's result line.  Exit status 0 even when a check fails:
// the record says so and run.py decides.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <string>

#include "cts/core/simd.hpp"
#include "cts/obs/json.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

/// Set-up is timed in batches of back-to-back set-ups, each batch at least
/// kSetupBatchS long: some set-ups take microseconds, and a single one is
/// mostly allocator and cache state.  One batch runs before every round,
/// so the samples span the run as the rounds do (the host's speed drifts
/// over a run); setup_s is the median batch mean.
constexpr double kSetupBatchS = 0.005;
/// Rounds always measured, even past the budget, so medians exist.
constexpr std::size_t kMinRounds = 3;

void write_numbers(cts::obs::JsonWriter& w, const std::vector<double>& xs) {
  w.begin_array();
  for (const double x : xs) w.value(x);
  w.end_array();
}

void write_metrics(cts::obs::JsonWriter& w,
                   const std::map<std::string, pb::Metric>& metrics) {
  w.begin_object();
  for (const auto& [name, m] : metrics) {
    w.key(name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
}

struct Phase {
  std::vector<pb::RoundResult> rounds;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> setups;  ///< per-set-up seconds, one per batch
  double wall_total = 0;
};

/// Runs a set-up batch and a round until `budget_s` is spent (and at least
/// kMinRounds).  The set-up batch is not traced.  Set-up, single-threaded
/// work, rotates over the allowed CPUs, and so do the rounds of a
/// single-threaded workload (see pin_to_cpu); threads would inherit the
/// pin, so multi-threaded rounds are not pinned.
template <typename F>
Phase run_rounds(pb::Workload& w, int batch, double budget_s, bool rotate, F&& round) {
  Phase phase;
  pb::Tracer& tracer = pb::Tracer::global();
  const bool traced = tracer.enabled();
  const std::vector<int>& cpus = pb::allowed_cpus();
  const double start = pb::now_s();
  while (phase.rounds.size() < kMinRounds || pb::now_s() - start < budget_s) {
    pb::pin_to_cpu(cpus[phase.rounds.size() % cpus.size()]);
    tracer.enable(false);
    const double s0 = pb::now_s();
    for (int i = 0; i < batch; ++i) w.setup();
    phase.setups.push_back((pb::now_s() - s0) / batch);
    tracer.enable(traced);
    if (!rotate) pb::unpin();
    const double cpu0 = pb::process_cpu_s();
    const double t0 = pb::now_s();
    pb::RoundResult r = round();
    phase.walls.push_back(pb::now_s() - t0 - r.excluded_s);
    phase.cpus.push_back(pb::process_cpu_s() - cpu0 + r.child_cpu_s);
    phase.rounds.push_back(std::move(r));
  }
  pb::unpin();
  phase.wall_total = pb::now_s() - start;
  return phase;
}

int run(const pb::Options& opt) {
  std::unique_ptr<pb::Workload> w = pb::make_workload(opt);
  if (!w) {
    std::fprintf(stderr, "cts_perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }

  const double t_first = pb::now_s();
  w->setup();
  const double first = pb::now_s() - t_first;
  const int batch = static_cast<int>(std::clamp(kSetupBatchS / first, 1.0, 1000.0));
  w->round();  // warm-up, untimed

  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const bool rotate = w->traced_threads() == 1;
  Phase plain = run_rounds(*w, batch, budget, rotate, [&] { return w->round(); });

  std::map<std::string, pb::Metric> e2e;
  std::map<std::string, pb::Metric> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> op_ms;
  std::vector<double> rates;
  double child_rss = 0;
  for (std::size_t i = 0; i < plain.rounds.size(); ++i) {
    const pb::RoundResult& r = plain.rounds[i];
    attempted += r.ops;
    failed += r.failed;
    op_ms.insert(op_ms.end(), r.op_ms.begin(), r.op_ms.end());
    rates.push_back(r.items / plain.walls[i]);
    child_rss = std::max(child_rss, r.child_rss_mb);
  }
  e2e["setup_s"] = {pb::median(plain.setups), "s"};
  e2e["wall_s"] = {pb::median(plain.walls), "s"};
  e2e["items_per_s"] = {pb::median(rates), "1/s"};
  e2e["op_p50_ms"] = {pb::quantile(op_ms, 0.5), "ms"};
  e2e["op_p99_ms"] = {pb::quantile(op_ms, 0.99), "ms"};
  e2e["cpu_s"] = {pb::median(plain.cpus), "s"};
  e2e["max_rss_mb"] = {pb::process_max_rss_mb() + child_rss, "MiB"};

  if (opt.trace) {
    pb::Tracer& tracer = pb::Tracer::global();
    tracer.clear();
    tracer.enable(true);
    // One traced set-up first (the fit layer), then the traced rounds.
    const double t0 = pb::now_s();
    w->setup();
    Phase traced =
        run_rounds(*w, batch, budget, rotate, [&] { return w->traced_round(); });
    traced.wall_total = pb::now_s() - t0;
    tracer.enable(false);
    for (const pb::RoundResult& r : traced.rounds) {
      attempted += r.ops;
      failed += r.failed;
    }
    const std::map<std::string, double> self = tracer.self_times();
    const double n = static_cast<double>(traced.rounds.size());
    double self_sum = 0;
    for (const auto& [name, s] : self) self_sum += s;
    layers = w->layer_metrics(self, traced.rounds.size());
    // The tail of the untraced half: too unsteady across runs to gate on,
    // so it is reported with the per-layer table.
    layers["op_p99_ms"] = e2e["op_p99_ms"];
    layers["obs.trace_overhead_pct"] = {
        (pb::median(traced.walls) / pb::median(plain.walls) - 1.0) * 100.0,
        "%"};
    layers["obs.traced_wall_s"] = {traced.wall_total / n, "s"};
    layers["obs.span_self_s"] = {self_sum / n, "s"};
    layers["obs.threads"] = {static_cast<double>(w->traced_threads()),
                             "count"};
    tracer.clear();
  }

  const std::vector<pb::Check> checks = w->checks();
  w->teardown();
  std::size_t checks_failed = 0;
  for (const pb::Check& c : checks) checks_failed += c.ok ? 0 : 1;
  // A failed output check counts as a failed op.
  failed += checks_failed;
  attempted += checks.size();
  e2e["ok_ratio"] = {1.0 - static_cast<double>(failed) /
                               static_cast<double>(attempted),
                     "ratio"};

  std::ostringstream os;
  cts::obs::JsonWriter json(os);
  json.begin_object();
  json.key("workload").value(opt.workload);
  json.key("seed").value(opt.seed);
  json.key("seconds").value(opt.seconds);
  json.key("trace").value(opt.trace);
  json.key("threads").value(std::uint64_t{opt.threads});
  json.key("rounds").value(std::uint64_t{plain.rounds.size()});
  json.key("round_walls");
  write_numbers(json, plain.walls);
  json.key("setup_samples");
  write_numbers(json, plain.setups);
  json.key("attempted").value(attempted);
  json.key("failed").value(failed);
  json.key("host").begin_object();
  json.key("simd").value(cts::core::simd::kind_name(cts::core::simd::active()));
  json.key("compiler").value(__VERSION__);
  json.end_object();
  json.key("end_to_end");
  write_metrics(json, e2e);
  json.key("per_layer");
  write_metrics(json, layers);
  json.key("checks").begin_array();
  for (const pb::Check& c : checks) {
    json.begin_object();
    json.key("name").value(c.name);
    json.key("ok").value(c.ok);
    json.key("detail").value(c.detail);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::printf("%s\n", os.str().c_str());
  return 0;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const std::size_t eq = a.find('=');
    const std::string value = eq == std::string::npos ? "" : a.substr(eq + 1);
    try {
      if (starts_with(a, "--workload=")) {
        opt.workload = value;
      } else if (starts_with(a, "--seed=")) {
        opt.seed = std::stoull(value);
      } else if (starts_with(a, "--seconds=")) {
        opt.seconds = std::stod(value);
      } else if (starts_with(a, "--trace=")) {
        opt.trace = value == "1";
      } else if (starts_with(a, "--threads=")) {
        opt.threads = static_cast<unsigned>(std::stoul(value));
      } else if (starts_with(a, "--work-dir=")) {
        opt.work_dir = value;
      } else if (starts_with(a, "--cacd=")) {
        opt.cacd_path = value;
      } else {
        std::fprintf(stderr, "cts_perfbench: unknown argument '%s'\n", a.c_str());
        return 2;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "cts_perfbench: bad value in '%s'\n", a.c_str());
      return 2;
    }
  }
  if (opt.threads == 0) opt.threads = 1;
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cts_perfbench: %s\n", e.what());
    return 1;
  }
}
