// Shared helpers for the experiment benches.
//
// Every bench binary regenerates one table or figure of Ryu & Elwalid
// (SIGCOMM '96) and prints it as an aligned text table; a CSV mirror is
// written next to the binary when --csv=<path> is passed.  Simulation
// benches run at a CI-friendly default scale; REPRO_FULL=1 switches to the
// paper's 60 x 500k-frame scale (REPRO_REPS / REPRO_FRAMES override
// individually).

// Observability (see the "Observability" section of README.md): every
// bench accepts --trace=<path> (Chrome-trace span timeline),
// --metrics=<path> (JSON run report: config echo + all registry metrics),
// --profile=<path> (cts.profile.v1 span-stack sampling profile;
// --profile-folded, --profile-hz and --profile-backend tune it), --quiet
// (suppress the stderr progress line; CTS_QUIET=1 equivalent) and --help,
// via the ObsGuard each main() constructs right after flag parsing.

#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite.hpp"
#include "cts/fit/model_zoo.hpp"
#include "cts/obs/profiler.hpp"
#include "cts/obs/progress.hpp"
#include "cts/obs/run_report.hpp"
#include "cts/obs/trace.hpp"
#include "cts/sim/curves.hpp"
#include "cts/sim/replication.hpp"
#include "cts/sim/shard.hpp"
#include "cts/util/cli_registry.hpp"
#include "cts/util/error.hpp"
#include "cts/util/csv.hpp"
#include "cts/util/flags.hpp"
#include "cts/util/table.hpp"

namespace bench {

/// The Fig. 5-10 multiplexer: N = 30 sources, c = 538 cells/frame.
inline cts::sim::MuxGeometry paper_mux_30() {
  cts::sim::MuxGeometry g;
  g.n_sources = 30;
  g.bandwidth_per_source = 538.0;
  g.Ts = 0.04;
  return g;
}

/// A reduced-utilisation variant (c = 520) of the Fig. 5-10 multiplexer:
/// at CI simulation scale the paper's own operating point (c = 538) pushes
/// buffered CLRs below the measurement floor, while at c = 520 every curve
/// resolves.  The paper notes (Section 5.5) that other choices of N and c
/// give qualitatively identical results.
inline cts::sim::MuxGeometry validation_mux_30() {
  cts::sim::MuxGeometry g;
  g.n_sources = 30;
  g.bandwidth_per_source = 520.0;
  g.Ts = 0.04;
  return g;
}

/// The Fig. 4 geometry: N = 100 sources, c = 526 cells/frame.
inline cts::sim::MuxGeometry paper_mux_100() {
  cts::sim::MuxGeometry g;
  g.n_sources = 100;
  g.bandwidth_per_source = 526.0;
  g.Ts = 0.04;
  return g;
}

/// Simulation scale: bench default (fast) with environment overrides.
inline cts::sim::ReplicationConfig bench_scale() {
  cts::sim::ReplicationConfig config = cts::sim::default_scale();
  config.replications = 4;
  config.frames_per_replication = 20000;
  config.warmup_frames = 1000;
  return cts::sim::apply_env_overrides(config);
}

/// Per-bench observability harness.  Construct one right after parsing
/// Flags; it (a) handles --help (prints the known-flag list and exits 0)
/// and warns about unrecognised --flags with a did-you-mean suggestion,
/// (b) enables span recording when --trace was passed, (c) honours
/// --quiet, (d) starts the --profile sampler, and (e) on destruction
/// writes the --metrics run report, the --trace file, the --shard-out
/// file and the profile.
class ObsGuard {
 public:
  /// Preferred constructor: a registered bench (see bench_suite.hpp);
  /// kind/title are echoed into the run report.
  ObsGuard(const cts::util::Flags& flags, const BenchSpec& spec,
           std::vector<std::string> extra_known = {})
      : ObsGuard(flags, spec.id, std::move(extra_known)) {
    kind_ = spec.kind;
    title_ = spec.title;
  }

  ObsGuard(const cts::util::Flags& flags, std::string run_id,
           std::vector<std::string> extra_known = {})
      : flags_(flags), run_id_(std::move(run_id)) {
    // The shared flag surface comes from the CLI registry so the benches,
    // --help, and docs/cli.md can never disagree about what exists.
    std::vector<std::string> known =
        cts::util::cli::flag_names(cts::util::cli::kBenchSharedFlags);
    known.insert(known.end(), extra_known.begin(), extra_known.end());
    if (flags_.get_bool("help", false)) {
      print_help(extra_known);
      std::exit(0);
    }
    flags_.warn_unknown(std::cerr, known);
    if (flags_.get_bool("quiet", false)) cts::obs::force_quiet(true);
    if (flags_.has("shard") || flags_.has("shard-out")) {
      // --shard=I/N routes through the REPRO_SHARD environment override so
      // every bench_scale() call in the bench body picks it up; --shard-out
      // (default <run_id>_shard.json) arms the global ShardRecorder, which
      // run_replicated feeds and write_reports() drains into a cts.shard.v1
      // file.  --shard-out alone records a degenerate 0/1 "shard" — the
      // single-process reference file the merge tests diff against.
      if (flags_.has("shard")) {
        const std::string spec_text = flags_.get_string("shard", "0/1");
        try {
          (void)cts::sim::parse_shard_spec(spec_text);
        } catch (const cts::util::InvalidArgument& e) {
          std::fprintf(stderr, "%s: --shard: %s\n", run_id_.c_str(), e.what());
          std::exit(2);
        }
        ::setenv("REPRO_SHARD", spec_text.c_str(), 1);
      }
      shard_path_ = flags_.get_string("shard-out", run_id_ + "_shard.json");
      cts::sim::ShardRecorder::global().enable(shard_path_);
    }
    if (flags_.has("trace")) {
      trace_path_ = flags_.get_string("trace", run_id_ + "_trace.json");
      cts::obs::TraceRecorder::global().enable();
    }
    if (flags_.has("metrics")) {
      metrics_path_ = flags_.get_string("metrics", run_id_ + "_metrics.json");
    }
    if (flags_.has("profile") || flags_.has("profile-folded")) {
      if (flags_.has("profile")) {
        profile_path_ =
            flags_.get_string("profile", run_id_ + "_profile.json");
      }
      if (flags_.has("profile-folded")) {
        profile_folded_path_ =
            flags_.get_string("profile-folded", run_id_ + "_profile.folded");
      }
      cts::obs::Profiler::Options popts;
      popts.hz = static_cast<int>(flags_.get_int("profile-hz", 97));
      popts.backend = flags_.get_string("profile-backend", "thread");
      try {
        cts::obs::Profiler::global().start(popts);
      } catch (const cts::util::InvalidArgument& e) {
        std::fprintf(stderr, "%s: --profile: %s\n", run_id_.c_str(),
                     e.what());
        std::exit(2);
      }
    }
    main_start_us_ = cts::obs::TraceRecorder::global().now_us();
  }

  ~ObsGuard() {
    try {
      write_reports();
    } catch (...) {
      // Report writing must never turn a successful bench into a failure.
    }
  }

  ObsGuard(const ObsGuard&) = delete;
  ObsGuard& operator=(const ObsGuard&) = delete;

 private:
  void print_help(const std::vector<std::string>& extra_known) const {
    std::printf("usage: %s [--flag[=value] ...]\n\n", run_id_.c_str());
    std::printf("shared flags:\n");
    for (const cts::util::cli::FlagDoc& flag :
         cts::util::cli::kBenchSharedFlags) {
      std::string name = std::string("--") + flag.name;
      if (flag.value_hint[0] != '\0') {
        name += std::string("=") + flag.value_hint;
      }
      std::printf("  %-18s %s\n", name.c_str(), flag.doc);
    }
    if (!extra_known.empty()) {
      std::printf("bench flags:\n");
      for (const std::string& key : extra_known) {
        std::printf("  --%s\n", key.c_str());
      }
    }
    std::printf("environment:");
    for (const cts::util::cli::EnvDoc& env : cts::util::cli::kEnvVars) {
      std::printf(" %s", env.name);
    }
    std::printf(" (see docs/cli.md)\n");
  }

  void write_reports() {
    cts::obs::TraceRecorder& recorder = cts::obs::TraceRecorder::global();
    if (recorder.enabled()) {
      // Root span covering the bench body, so every bench's trace —
      // including the purely analytic ones — has at least one span.
      recorder.record("bench.main", main_start_us_,
                      recorder.now_us() - main_start_us_);
    }
    if (!metrics_path_.empty()) {
      cts::obs::RunReport report;
      report.set("run_id", run_id_);
      if (!kind_.empty()) report.set("bench_kind", kind_);
      if (!title_.empty()) report.set("bench_title", title_);
      report.set("repro_full", cts::util::env_flag("REPRO_FULL"));
      const cts::sim::ReplicationConfig scale = bench_scale_echo();
      report.set("replications", static_cast<std::uint64_t>(scale.replications));
      report.set("frames_per_replication", scale.frames_per_replication);
      report.set("warmup_frames", scale.warmup_frames);
      // An exact uint64 echo: the registry's master_seed_hi/lo gauges carry
      // the same value for consumers that only see the metrics section.
      report.set("master_seed", scale.master_seed);
      if (scale.shard_count > 1) {
        report.set("shard", cts::sim::format_shard_spec(
                                {scale.shard_index, scale.shard_count}));
      }
      report.set("hardware_concurrency",
                 static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
      if (report.write(metrics_path_)) {
        std::printf("[metrics written to %s]\n", metrics_path_.c_str());
      } else {
        std::printf("[warning: could not write metrics to %s]\n",
                    metrics_path_.c_str());
      }
    }
    if (!trace_path_.empty()) {
      if (cts::obs::TraceRecorder::global().write(trace_path_)) {
        std::printf("[trace written to %s (%zu spans)]\n", trace_path_.c_str(),
                    cts::obs::TraceRecorder::global().event_count());
      } else {
        std::printf("[warning: could not write trace to %s]\n",
                    trace_path_.c_str());
      }
    }
    if (!shard_path_.empty()) {
      cts::sim::ShardRecorder& shards = cts::sim::ShardRecorder::global();
      if (shards.write()) {
        std::printf("[shard file written to %s]\n", shard_path_.c_str());
      } else {
        std::printf("[warning: could not write shard file to %s]\n",
                    shard_path_.c_str());
      }
      shards.disable();
    }
    if (!profile_path_.empty() || !profile_folded_path_.empty()) {
      cts::obs::Profiler& prof = cts::obs::Profiler::global();
      prof.stop();
      if (!profile_path_.empty()) {
        if (prof.write(profile_path_)) {
          std::printf("[profile written to %s (%llu samples)]\n",
                      profile_path_.c_str(),
                      static_cast<unsigned long long>(prof.sample_count()));
        } else {
          std::printf("[warning: could not write profile to %s]\n",
                      profile_path_.c_str());
        }
      }
      if (!profile_folded_path_.empty()) {
        if (prof.write_folded_file(profile_folded_path_)) {
          std::printf("[folded profile written to %s]\n",
                      profile_folded_path_.c_str());
        } else {
          std::printf("[warning: could not write folded profile to %s]\n",
                      profile_folded_path_.c_str());
        }
      }
    }
  }

  /// The env-resolved scale the simulation benches run at, echoed into the
  /// report so two runs can be diffed for comparability first.
  static cts::sim::ReplicationConfig bench_scale_echo();

  const cts::util::Flags& flags_;
  std::string run_id_;
  std::string kind_;
  std::string title_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string shard_path_;
  std::string profile_path_;
  std::string profile_folded_path_;
  std::int64_t main_start_us_ = 0;
};

inline cts::sim::ReplicationConfig ObsGuard::bench_scale_echo() {
  return bench_scale();
}

/// Prints the shard-slice note under the scale line when the resolved
/// scale is sharded (--shard / REPRO_SHARD), so a worker's log says which
/// global replications it actually ran.
inline void shard_note(const cts::sim::ReplicationConfig& scale) {
  if (scale.shard_count <= 1) return;
  const std::size_t lo =
      scale.replications * scale.shard_index / scale.shard_count;
  const std::size_t hi =
      scale.replications * (scale.shard_index + 1) / scale.shard_count;
  std::printf("[shard %zu/%zu: global replications [%zu, %zu)]\n",
              scale.shard_index, scale.shard_count, lo, hi);
}

/// Prints the standard bench banner (figure id + scale note).
inline void banner(const std::string& what) {
  std::printf("==================================================\n");
  std::printf("%s\n", what.c_str());
  if (cts::util::env_flag("REPRO_FULL")) {
    std::printf("[scale: PAPER (REPRO_FULL=1): 60 reps x 500k frames]\n");
  }
  std::printf("==================================================\n");
}

/// Optionally mirrors a rendered table to CSV when --csv was passed.
inline void maybe_write_csv(const cts::util::Flags& flags,
                            const cts::util::CsvWriter& csv,
                            const std::string& default_name) {
  if (!flags.has("csv")) return;
  const std::string path = flags.get_string("csv", default_name);
  if (csv.write(path)) {
    std::printf("[csv written to %s]\n", path.c_str());
  } else {
    std::printf("[warning: could not write csv to %s]\n", path.c_str());
  }
}

/// log10 formatting that tolerates zero CLR estimates ("<floor" marker).
inline std::string log10_or_floor(double p) {
  if (p <= 0.0) return "-inf";
  return cts::util::format_fixed(std::log10(p), 3);
}

}  // namespace bench
