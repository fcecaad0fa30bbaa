// cts-benchd: performance-telemetry orchestrator.
//
// Runs a configurable suite of the figure/table benches (bench_suite.hpp)
// with warmup + R measured repeats each.  Every measured run executes the
// bench binary with --perf=<tmp>.json; the child's cts.perf.v1 report
// (getrusage deltas, hardware counters when the kernel permits, span
// self-time table) is parsed back and aggregated into median / MAD / 95%
// CI per metric.  The result is one canonical, schema-versioned
// cts.bench.v1 document — BENCH_<ISO-date>.json at the invocation
// directory by default — that tools/cts_benchcmp can diff against a
// committed baseline with noise-aware thresholds.
//
//   cts_benchd --suite=smoke --repeats=5            # the usual call
//   cts_benchd --suite=full --repeats=3 --warmup=1  # everything (slow)
//   cts_benchd --compare=BENCH_base.json            # run + gate in one shot
//   cts_benchd --json-lines=runs.jsonl              # per-run soak stream
//   cts_benchd --list                               # show the registry
//
// --compare runs the suite, writes the document, then gates it against
// the given baseline with the same noise-aware rules (and exit codes) as
// cts_benchcmp: 0 no regression, 1 regression, 2 errors (including a
// bench that failed to run).  --json-lines appends one RFC 8259 JSON
// object per run (schema cts.benchrun.v1, warmup runs flagged) as the
// suite executes, so a soak loop can be tailed live.
//
// The simulation scale of every child is pinned via REPRO_REPS /
// REPRO_FRAMES (defaults: 2 x 2000, override with --reps/--frames) so two
// BENCH files are comparable by construction; the scale is echoed into the
// document.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/utsname.h>
#include <unistd.h>

#include "bench_suite.hpp"
#include "cts/obs/bench_compare.hpp"
#include "cts/obs/bench_stats.hpp"
#include "cts/obs/event_log.hpp"
#include "cts/obs/json.hpp"
#include "cts/obs/perf.hpp"
#include "cts/util/cli_registry.hpp"
#include "cts/util/clock.hpp"
#include "cts/util/error.hpp"
#include "cts/util/file.hpp"
#include "cts/util/flags.hpp"

namespace fs = std::filesystem;
namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

constexpr const char* kMetricNames[] = {
    "wall_s",         "user_s",          "sys_s",
    "max_rss_kb",     "ctx_voluntary",   "ctx_involuntary",
};
constexpr const char* kHwCounterNames[] = {
    "cycles",      "instructions",  "cache_references",
    "cache_misses", "branches",     "branch_misses",
};

struct Options {
  std::string suite = "smoke";
  std::string filter;
  std::string out;
  std::string bench_dir;
  std::string date;
  std::string compare;     ///< baseline for the one-shot gate ("" = off)
  std::string json_lines;  ///< per-run JSONL stream path ("" = off)
  long long repeats = 5;
  long long warmup = 1;
  long long repro_reps = 2;
  long long repro_frames = 2000;
  double k_mad = 3.0;    ///< --compare noise gate
  double min_rel = 0.05; ///< --compare relative gate
  bool keep_runs = false;
  bool quiet = false;
};

/// One parsed per-run perf report, flattened for aggregation.
struct RunSample {
  std::map<std::string, double> metrics;           ///< resources.*
  std::map<std::string, double> hw;                ///< hw.counters.* + ipc
  bool hw_available = false;
  std::string hw_reason;
  std::map<std::string, double> phase_self_us;     ///< phases[].self_us
  std::map<std::string, double> phase_spans;       ///< phases[].spans
};

std::string today_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", &tm);
  return buf;
}

void usage() {
  std::printf(
      "usage: cts_benchd [--suite=smoke|sim|analytic|full] [--filter=SUBSTR]\n"
      "                  [--repeats=N] [--warmup=N] [--out=PATH]\n"
      "                  [--bench-dir=DIR] [--reps=N] [--frames=N]\n"
      "                  [--date=YYYY-MM-DD] [--compare=BASE.json] [--k=3]\n"
      "                  [--pct=5] [--json-lines=PATH] [--keep-runs]\n"
      "                  [--quiet] [--list]\n\n"
      "Runs the selected bench suite with warmup + N measured repeats per\n"
      "bench and writes a cts.bench.v1 document (default: "
      "BENCH_<date>.json\n"
      "in the current directory) with median/MAD/95%% CI per metric, peak\n"
      "RSS, user/sys CPU time, hardware counters when available, and a\n"
      "per-phase span self-time table.  --compare=BASE.json then gates the\n"
      "fresh document against BASE in the same invocation, with\n"
      "cts_benchcmp's rules and exit codes (0 ok, 1 regression, 2 error);\n"
      "--json-lines=PATH streams one cts.benchrun.v1 JSON object per run\n"
      "for soak monitoring.\n");
}

bool in_suite(const bench::BenchSpec& s, const std::string& suite) {
  if (suite == "full") return true;
  if (suite == "smoke") return s.smoke;
  return suite == s.kind;  // "sim" | "analytic"
}

/// Runs one bench once; returns false when the child fails or its perf
/// report cannot be parsed (detail in *error).
bool run_once(const Options& opt, const bench::BenchSpec& spec,
              const std::string& perf_path, RunSample* out,
              std::string* error) {
  const std::string binary =
      (fs::path(opt.bench_dir) / spec.binary).string();
  std::ostringstream cmd;
  cmd << "REPRO_REPS=" << opt.repro_reps
      << " REPRO_FRAMES=" << opt.repro_frames << " CTS_QUIET=1 '" << binary
      << "' --quiet --perf='" << perf_path << "' > /dev/null 2>&1";
  const int rc = std::system(cmd.str().c_str());
  if (rc != 0) {
    *error = spec.binary + std::string(" exited with status ") +
             std::to_string(rc);
    return false;
  }
  std::string text;
  if (!cu::read_text_file(perf_path, &text, error)) return false;
  try {
    const obs::JsonValue doc = obs::json_parse(text);
    cu::require(doc.at("schema").as_string() == obs::PerfReport::kSchema,
                "unexpected perf schema");
    const obs::JsonValue& res = doc.at("resources");
    for (const char* name : kMetricNames) {
      out->metrics[name] = res.at(name).as_number();
    }
    const obs::JsonValue& hw = doc.at("hw");
    out->hw_available = hw.at("available").as_bool();
    if (out->hw_available) {
      for (const auto& [name, v] : hw.at("counters").members) {
        out->hw[name] = v.as_number();
      }
      out->hw["ipc"] = hw.at("ipc").as_number();
    } else {
      out->hw_reason = hw.at("reason").as_string();
    }
    for (const obs::JsonValue& phase : doc.at("phases").items) {
      const std::string& name = phase.at("phase").as_string();
      out->phase_self_us[name] = phase.at("self_us").as_number();
      out->phase_spans[name] = phase.at("spans").as_number();
    }
  } catch (const cu::Error& e) {
    *error = std::string("perf report parse error: ") + e.what();
    return false;
  }
  return true;
}

/// One cts.benchrun.v1 line for the --json-lines stream: the flattened
/// per-run sample, warmup runs included (flagged) so a soak monitor sees
/// every execution as it happens.
void write_json_line(std::ostream& os, const bench::BenchSpec& spec,
                     long long run_index, bool warmup, const RunSample& s) {
  std::ostringstream line;
  obs::JsonWriter w(line);
  w.begin_object();
  w.key("schema").value("cts.benchrun.v1");
  w.key("bench").value(spec.id);
  w.key("kind").value(spec.kind);
  w.key("run").value(static_cast<std::int64_t>(run_index));
  w.key("warmup").value(warmup);
  for (const char* name : kMetricNames) {
    w.key(name).value(s.metrics.at(name));
  }
  w.key("hw_available").value(s.hw_available);
  if (s.hw_available) {
    const auto ipc = s.hw.find("ipc");
    if (ipc != s.hw.end()) w.key("ipc").value(ipc->second);
  }
  w.end_object();
  os << line.str() << '\n';
  os.flush();  // a tailing soak monitor must see the line immediately
}

void write_summary(obs::JsonWriter& w, const obs::RobustSummary& s,
                   const std::vector<double>& samples) {
  w.begin_object();
  w.key("n").value(static_cast<std::uint64_t>(s.n));
  w.key("median").value(s.median);
  w.key("mad").value(s.mad);
  w.key("ci95_lo").value(s.ci95_lo);
  w.key("ci95_hi").value(s.ci95_hi);
  w.key("min").value(s.min);
  w.key("max").value(s.max);
  w.key("mean").value(s.mean);
  w.key("samples").begin_array();
  for (const double v : samples) w.value(v);
  w.end_array();
  w.end_object();
}

int run(const Options& opt) {
  std::vector<const bench::BenchSpec*> selected;
  for (const bench::BenchSpec& s : bench::kSuite) {
    if (!in_suite(s, opt.suite)) continue;
    if (!opt.filter.empty() &&
        std::string(s.id).find(opt.filter) == std::string::npos) {
      continue;
    }
    selected.push_back(&s);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "cts_benchd: no benches match suite '%s'%s%s\n",
                 opt.suite.c_str(),
                 opt.filter.empty() ? "" : " filter ",
                 opt.filter.c_str());
    return 2;
  }

  const std::string date = opt.date.empty() ? today_utc() : opt.date;
  const std::string out_path =
      opt.out.empty() ? "BENCH_" + date + ".json" : opt.out;

  std::error_code ec;
  const fs::path run_dir =
      fs::temp_directory_path(ec) /
      ("cts_benchd_" + std::to_string(static_cast<long long>(getpid())));
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cts_benchd: cannot create run dir %s: %s\n",
                 run_dir.string().c_str(), ec.message().c_str());
    return 2;
  }

  std::ofstream jsonl;
  if (!opt.json_lines.empty()) {
    jsonl.open(opt.json_lines);
    if (!jsonl) {
      std::fprintf(stderr, "cts_benchd: cannot write %s\n",
                   opt.json_lines.c_str());
      return 2;
    }
  }

  std::ostringstream body;
  obs::JsonWriter w(body);
  w.begin_object();
  w.key("schema").value("cts.bench.v1");
  w.key("generated").value(date);
  w.key("suite").value(opt.suite);
  w.key("repeats").value(static_cast<std::int64_t>(opt.repeats));
  w.key("warmup").value(static_cast<std::int64_t>(opt.warmup));
  w.key("scale").begin_object();
  w.key("repro_reps").value(static_cast<std::int64_t>(opt.repro_reps));
  w.key("repro_frames").value(static_cast<std::int64_t>(opt.repro_frames));
  w.end_object();

  w.key("host").begin_object();
  w.key("hardware_concurrency")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  utsname uts{};
  if (uname(&uts) == 0) {
    w.key("os").value(std::string(uts.sysname) + " " + uts.release);
    w.key("machine").value(uts.machine);
  }
  w.end_object();

  int failures = 0;
  obs::log_info("suite.start",
                {{"suite", opt.suite},
                 {"benches", static_cast<std::uint64_t>(selected.size())},
                 {"repeats", static_cast<std::int64_t>(opt.repeats)}});
  w.key("benches").begin_object();
  for (const bench::BenchSpec* spec : selected) {
    if (!opt.quiet) {
      std::fprintf(stderr, "[cts_benchd] %-22s %s x%lld (+%lld warmup)\n",
                   spec->id, spec->kind, opt.repeats, opt.warmup);
    }
    std::vector<RunSample> samples;
    std::string error;
    bool failed = false;
    const double bench_start_s = cu::monotonic_s();
    const long long total_runs = opt.warmup + opt.repeats;
    for (long long i = 0; i < total_runs; ++i) {
      const std::string perf_path =
          (run_dir / (std::string(spec->id) + "_run" + std::to_string(i) +
                      ".json"))
              .string();
      RunSample sample;
      if (!run_once(opt, *spec, perf_path, &sample, &error)) {
        std::fprintf(stderr, "[cts_benchd] FAILED %s: %s\n", spec->id,
                     error.c_str());
        failed = true;
        break;
      }
      if (jsonl.is_open()) {
        write_json_line(jsonl, *spec, i, i < opt.warmup, sample);
      }
      if (i >= opt.warmup) samples.push_back(std::move(sample));
    }
    if (failed || samples.empty()) {
      ++failures;
      obs::log_warn("bench.fail",
                    {{"bench", spec->id},
                     {"error", failed ? error : std::string("no samples")}});
      continue;
    }
    obs::log_info("bench.done",
                  {{"bench", spec->id},
                   {"runs", static_cast<std::uint64_t>(samples.size())},
                   {"wall_ms", (cu::monotonic_s() - bench_start_s) * 1e3}});

    w.key(spec->id).begin_object();
    w.key("binary").value(spec->binary);
    w.key("kind").value(spec->kind);
    w.key("title").value(spec->title);
    w.key("runs").value(static_cast<std::uint64_t>(samples.size()));

    w.key("metrics").begin_object();
    for (const char* name : kMetricNames) {
      std::vector<double> values;
      values.reserve(samples.size());
      for (const RunSample& s : samples) values.push_back(s.metrics.at(name));
      write_summary(w.key(name), obs::robust_summary(values), values);
    }
    w.end_object();

    const bool hw_ok = !samples.empty() &&
                       std::all_of(samples.begin(), samples.end(),
                                   [](const RunSample& s) {
                                     return s.hw_available;
                                   });
    w.key("hw").begin_object();
    w.key("available").value(hw_ok);
    if (hw_ok) {
      w.key("backend").value("perf_event");
      w.key("counters").begin_object();
      for (const char* name : kHwCounterNames) {
        if (samples.front().hw.find(name) == samples.front().hw.end()) {
          continue;
        }
        std::vector<double> values;
        for (const RunSample& s : samples) values.push_back(s.hw.at(name));
        write_summary(w.key(name), obs::robust_summary(values), values);
      }
      w.end_object();
      std::vector<double> ipc;
      for (const RunSample& s : samples) ipc.push_back(s.hw.at("ipc"));
      w.key("ipc_median").value(obs::median_of(ipc));
    } else {
      w.key("reason").value(samples.front().hw_available
                                ? "hardware counters flapped between runs"
                                : samples.front().hw_reason);
    }
    w.end_object();

    // Phase self-time table: median over runs, plus the share of the total
    // attributed self time (medians renormalised, so shares sum to ~1).
    std::map<std::string, std::vector<double>> phase_values;
    std::map<std::string, std::vector<double>> phase_span_counts;
    for (const RunSample& s : samples) {
      for (const auto& [phase, v] : s.phase_self_us) {
        phase_values[phase].push_back(v);
        phase_span_counts[phase].push_back(s.phase_spans.at(phase));
      }
    }
    double self_total = 0.0;
    std::map<std::string, double> phase_median;
    for (const auto& [phase, values] : phase_values) {
      phase_median[phase] = obs::median_of(values);
      self_total += phase_median[phase];
    }
    w.key("phases").begin_array();
    for (const auto& [phase, values] : phase_values) {
      w.begin_object();
      w.key("phase").value(phase);
      w.key("self_us_median").value(phase_median[phase]);
      w.key("self_share")
          .value(self_total > 0.0 ? phase_median[phase] / self_total : 0.0);
      w.key("spans_median").value(obs::median_of(phase_span_counts[phase]));
      w.end_object();
    }
    w.end_array();

    w.end_object();  // bench
  }
  w.end_object();  // benches
  w.end_object();  // document

  if (!opt.keep_runs) fs::remove_all(run_dir, ec);

  // Self-check: the document we are about to commit to disk must satisfy
  // our own strict validator.
  std::string error;
  if (!obs::json_parse_check(body.str(), &error)) {
    std::fprintf(stderr, "cts_benchd: internal error, emitted JSON invalid: %s\n",
                 error.c_str());
    return 2;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cts_benchd: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << body.str() << '\n';
  out.close();
  obs::log_info("suite.done",
                {{"suite", opt.suite},
                 {"out", out_path},
                 {"benches", static_cast<std::int64_t>(
                                 static_cast<int>(selected.size()) -
                                 failures)},
                 {"failed", failures}});
  if (!opt.quiet) {
    std::fprintf(stderr, "[cts_benchd] wrote %s (%d benches, %d failed)\n",
                 out_path.c_str(),
                 static_cast<int>(selected.size()) - failures, failures);
  }
  if (opt.keep_runs && !opt.quiet) {
    std::fprintf(stderr, "[cts_benchd] per-run reports kept in %s\n",
                 run_dir.string().c_str());
  }

  // One-shot gate: compare the document we just wrote against the given
  // baseline with cts_benchcmp's rules and exit codes.  A bench that
  // failed to run is an error (2), not a pass — a gate must never go
  // green because the regressed bench crashed out of the measurement.
  if (!opt.compare.empty()) {
    if (failures != 0) {
      std::fprintf(stderr,
                   "cts_benchd: %d bench(es) failed; refusing to gate an "
                   "incomplete document against %s\n",
                   failures, opt.compare.c_str());
      return 2;
    }
    std::string base_text;
    std::string read_error;
    if (!cu::read_text_file(opt.compare, &base_text, &read_error)) {
      std::fprintf(stderr, "cts_benchd: cannot read baseline: %s\n",
                   read_error.c_str());
      return 2;
    }
    obs::CompareOptions options;
    options.k_mad = opt.k_mad;
    options.min_rel = opt.min_rel;
    const obs::JsonValue baseline = obs::json_parse(base_text);
    const obs::JsonValue candidate = obs::json_parse(body.str());
    const obs::CompareReport report =
        obs::compare_bench_reports(baseline, candidate, options);
    if (!opt.quiet) {
      std::printf("%s", obs::format_compare_report(report).c_str());
    }
    if (report.has_regression()) {
      std::fputs(obs::format_regressions(report, options).c_str(), stderr);
      return 1;
    }
    if (!opt.quiet) std::printf("no regressions beyond threshold\n");
    return 0;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cu::Flags flags(argc, argv);
    if (flags.get_bool("help", false)) {
      usage();
      return 0;
    }
    flags.warn_unknown(std::cerr, cu::cli::flag_names(cu::cli::kBenchdFlags));

    // Structured events are opt-in: --log appends cts.events.v1 JSONL with
    // the suite/bench lifecycle (stderr keeps the human progress lines).
    const std::string log_path = flags.get_string("log", "");
    if (!log_path.empty()) obs::EventLog::global().open(log_path);
    obs::EventLog::global().set_min_level(
        obs::parse_log_level(flags.get_string("log-level", "info")));

    Options opt;
    opt.suite = flags.get_string("suite", opt.suite);
    if (opt.suite != "smoke" && opt.suite != "sim" &&
        opt.suite != "analytic" && opt.suite != "full") {
      std::fprintf(stderr, "cts_benchd: unknown suite '%s'\n",
                   opt.suite.c_str());
      usage();
      return 2;
    }
    opt.filter = flags.get_string("filter", "");
    opt.out = flags.get_string("out", "");
    opt.date = flags.get_string("date", "");
    opt.compare = flags.get_string("compare", "");
    opt.json_lines = flags.get_string("json-lines", "");
    opt.repeats = flags.get_int("repeats", opt.repeats);
    opt.warmup = flags.get_int("warmup", opt.warmup);
    opt.repro_reps = flags.get_int("reps", opt.repro_reps);
    opt.repro_frames = flags.get_int("frames", opt.repro_frames);
    opt.k_mad = flags.get_double("k", opt.k_mad);
    opt.min_rel = flags.get_double("pct", opt.min_rel * 100.0) / 100.0;
    opt.keep_runs = flags.get_bool("keep-runs", false);
    opt.quiet = flags.get_bool("quiet", false);
    cu::require(opt.repeats >= 1, "cts_benchd: --repeats must be >= 1");
    cu::require(opt.warmup >= 0, "cts_benchd: --warmup must be >= 0");

    if (flags.get_bool("list", false)) {
      std::printf("%-24s %-9s %-6s %s\n", "id", "kind", "smoke", "title");
      for (const bench::BenchSpec& s : bench::kSuite) {
        std::printf("%-24s %-9s %-6s %s\n", s.id, s.kind,
                    s.smoke ? "yes" : "no", s.title);
      }
      return 0;
    }

    // Bench binaries: --bench-dir beats CTS_BENCH_DIR beats the build-tree
    // layout convention (tools/ and bench/ are sibling directories).
    opt.bench_dir = flags.get_string("bench-dir", "");
    if (opt.bench_dir.empty()) {
      const char* env = std::getenv("CTS_BENCH_DIR");
      if (env != nullptr && env[0] != '\0') {
        opt.bench_dir = env;
      } else {
        opt.bench_dir =
            (fs::path(argv[0]).parent_path() / ".." / "bench").string();
      }
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cts_benchd: %s\n", e.what());
    return 2;
  }
}
