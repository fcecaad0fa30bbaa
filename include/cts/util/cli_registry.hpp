// Single source of truth for the command-line surface of the harness.
//
// Every bench binary and every tool builds its known-flag list (the one
// Flags::warn_unknown checks and --help prints) from these tables, and
// docs/cli.md documents the same tables — tests/test_cli_docs.cpp asserts
// that every flag and environment variable registered here appears in the
// doc, so the reference cannot drift silently when a flag is added: the
// new entry lands here, the tool picks it up, and the test fails until
// docs/cli.md mentions it.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cts::util::cli {

/// One documented --flag.
struct FlagDoc {
  const char* name;        ///< without the leading "--"
  const char* value_hint;  ///< "" for boolean flags
  const char* doc;         ///< one-line description
};

/// One documented environment variable.
struct EnvDoc {
  const char* name;
  const char* doc;
};

/// Flags every bench binary accepts (parsed by bench::ObsGuard).
inline constexpr FlagDoc kBenchSharedFlags[] = {
    {"csv", "PATH", "mirror the rendered table as CSV"},
    {"trace", "PATH", "write a Chrome-trace span timeline"},
    {"metrics", "PATH",
     "write the JSON run report (config echo + metrics registry)"},
    {"profile", "PATH",
     "write a cts.profile.v1 span-stack sampling profile (default "
     "<run_id>_profile.json)"},
    {"profile-folded", "PATH",
     "write the profile as collapsed-stack text (flamegraph.pl ready)"},
    {"profile-hz", "N", "profiler sampling rate in Hz (default 97)"},
    {"profile-backend", "NAME",
     "profiler backend: thread (wall clock) or itimer (SIGPROF, CPU time)"},
    {"shard", "I/N",
     "run only replication shard I of N (REPRO_SHARD equivalent)"},
    {"shard-out", "PATH",
     "write this worker's cts.shard.v1 file (default <run_id>_shard.json)"},
    {"quiet", "",
     "suppress the stderr progress line (CTS_QUIET=1 equivalent)"},
    {"help", "", "print this flag list and exit"},
};

/// tools/cts_simd.
inline constexpr FlagDoc kSimdFlags[] = {
    {"shards", "N", "worker process count for `run` (default 2)"},
    {"out-dir", "DIR", "shard files / logs directory (default simd_out)"},
    {"metrics", "PATH",
     "merged run report path (default simd_metrics.json)"},
    {"keep-shards", "", "keep per-worker shard files after the merge"},
    {"timeout", "SECS",
     "kill and report local workers still running after SECS (default 0 = "
     "no deadline)"},
    {"workers", "HOST:PORT,...",
     "dispatch shards to these cts_shardd workers instead of local "
     "fork/exec (BENCH becomes a registry id)"},
    {"job-timeout", "SECS",
     "per-job network deadline in --workers mode (default 300)"},
    {"retries", "N",
     "max dispatch attempts per shard across workers before local fallback "
     "(default 3)"},
    {"bench-dir", "DIR",
     "bench-binary directory for the local fallback in --workers mode "
     "(default: CTS_BENCH_DIR or the build-tree sibling bench/)"},
    {"dispatch-metrics", "PATH",
     "write the dispatcher's own cts::obs run report (jobs, retries, "
     "per-worker latency) — kept out of the merged report by design"},
    {"trace", "PATH",
     "write a merged Chrome-trace timeline: dispatcher spans plus one "
     "clock-corrected lane per worker (from the jobs' obs captures)"},
    {"profile", "PATH",
     "write the dispatcher's cts.profile.v1 span-stack sampling profile"},
    {"profile-folded", "PATH",
     "write the dispatcher profile as collapsed-stack text"},
    {"profile-hz", "N", "profiler sampling rate in Hz (default 97)"},
    {"profile-backend", "NAME",
     "profiler backend: thread (wall clock) or itimer (SIGPROF, CPU time)"},
    {"log", "PATH",
     "append cts.events.v1 JSONL events (dispatch lifecycle) to PATH"},
    {"log-level", "LEVEL",
     "event-log sink threshold: debug|info|warn|error (default info)"},
    {"quiet", "", "suppress progress"},
    {"help", "", "print usage and exit"},
};

/// tools/cts_shardd.
inline constexpr FlagDoc kShardDFlags[] = {
    {"port", "N", "TCP port to listen on (default 0 = ephemeral, printed)"},
    {"port-file", "PATH", "write the bound port to PATH (for launchers)"},
    {"bench-dir", "DIR",
     "bench-binary directory (default: CTS_BENCH_DIR or the build-tree "
     "sibling bench/)"},
    {"work-dir", "DIR",
     "scratch directory for shard files and job logs (default shardd_work)"},
    {"max-jobs", "N", "exit 0 after serving N jobs (default 0 = forever)"},
    {"fault-exit-after", "N",
     "fault-injection hook: die abruptly (no reply) on the job after N "
     "served — simulates a worker killed mid-shard (default off)"},
    {"profile", "PATH",
     "write a cts.profile.v1 span-stack sampling profile on clean exit"},
    {"profile-folded", "PATH",
     "write the profile as collapsed-stack text on clean exit"},
    {"profile-hz", "N", "profiler sampling rate in Hz (default 97)"},
    {"profile-backend", "NAME",
     "profiler backend: thread (wall clock) or itimer (SIGPROF, CPU time)"},
    {"log", "PATH",
     "append cts.events.v1 JSONL events to PATH instead of stderr"},
    {"log-level", "LEVEL",
     "event-log sink threshold: debug|info|warn|error (default info)"},
    {"quiet", "", "silence the default stderr event sink"},
    {"help", "", "print usage and exit"},
};

/// tools/cts_cacd (all modes: serve, query, eval).
inline constexpr FlagDoc kCacdFlags[] = {
    {"port", "N",
     "serve: TCP port to listen on (default 0 = ephemeral, printed); "
     "query: the daemon's port (required)"},
    {"port-file", "PATH", "serve: write the bound port to PATH"},
    {"max-requests", "N",
     "serve: exit 0 after serving N CAC requests (default 0 = forever)"},
    {"deadline", "SECS",
     "serve: default per-request batch deadline when the request omits "
     "deadline_s (default 30); query: the deadline_s to send (default 0 = "
     "daemon default)"},
    {"host", "H", "query: daemon host (default 127.0.0.1)"},
    {"model", "ID",
     "query/eval: model-zoo id — za:A, vv:V, dar:A:P, l, white, ar1:PHI, "
     "farima:D, mginf:BETA (default za:0.9)"},
    {"capacity", "C",
     "query/eval: link capacity, cells/frame (default 16140)"},
    {"buffer", "B", "query/eval: total buffer, cells (default 4035)"},
    {"clr", "L", "query/eval: log10 CLR target, < 0 (default -6)"},
    {"kind", "K,K,...",
     "query/eval: comma list of query kinds — admit_br, admit_eb, bop "
     "(default admit_br); one query per entry"},
    {"n", "N", "query/eval: connection count for bop queries (default 1)"},
    {"interp", "",
     "query: let bop answers interpolate between cached grid points"},
    {"timeout", "SECS",
     "query: connect/send/receive network deadline (default 30)"},
    {"request-file", "PATH",
     "query: send this file verbatim as the request instead of building "
     "one from flags"},
    {"profile", "PATH",
     "serve: write a cts.profile.v1 span-stack sampling profile on clean "
     "exit"},
    {"profile-folded", "PATH",
     "serve: write the profile as collapsed-stack text on clean exit"},
    {"profile-hz", "N", "profiler sampling rate in Hz (default 97)"},
    {"profile-backend", "NAME",
     "profiler backend: thread (wall clock) or itimer (SIGPROF, CPU time)"},
    {"log", "PATH",
     "append cts.events.v1 JSONL events to PATH instead of stderr"},
    {"log-level", "LEVEL",
     "event-log sink threshold: debug|info|warn|error (default info)"},
    {"quiet", "", "silence the default stderr event sink"},
    {"help", "", "print usage and exit"},
};

/// tools/cts_scenariod (all modes: run, merge, check).
inline constexpr FlagDoc kScenariodFlags[] = {
    {"out", "PATH",
     "run/merge: cts.scenarioresult.v1 output path (default "
     "scenario_result.json)"},
    {"hop-trace", "PATH",
     "run/merge: also write the cts.scenariotrace.v1 per-hop trace (needs "
     "hop_trace_every in the spec, and for run a slice containing "
     "replication 0)"},
    {"shard", "I/N",
     "run: execute only replication shard I of N; the partial merges "
     "bit-identically via `merge`"},
    {"reps", "N", "run: override the spec's replication count"},
    {"frames", "N", "run: override measured frames per replication"},
    {"warmup", "N", "run: override warmup frames per replication"},
    {"seed", "U64", "run: override the master seed (decimal)"},
    {"threads", "N", "run: worker threads (default 0 = hardware concurrency)"},
    {"metrics", "PATH",
     "run: write the JSON run report (config echo + metrics registry)"},
    {"trace", "PATH", "run: write a Chrome-trace span timeline"},
    {"quiet", "", "suppress the stderr progress line"},
    {"help", "", "print usage and exit"},
};

/// tools/cts_obstop.
inline constexpr FlagDoc kObstopFlags[] = {
    {"workers", "HOST:PORT,...",
     "cts_shardd stats endpoints to poll (required unless --validate)"},
    {"json", "",
     "one-shot: print each worker's raw cts.stats.v1 reply (single worker: "
     "the object verbatim; several: a JSON array) and exit"},
    {"openmetrics", "",
     "one-shot: print one worker's OpenMetrics 1.0 exposition verbatim and "
     "exit (exactly one worker)"},
    {"interval", "SECS", "poll period for the live table (default 2)"},
    {"iterations", "N",
     "stop the live table after N polls (default 0 = until interrupted)"},
    {"timeout", "SECS", "per-worker connect/reply deadline (default 5)"},
    {"slo", "METRIC:pQ:MS,...",
     "latency objectives against exported log histograms (e.g. "
     "shardd.job_wall_ms:p99:250); breaching rows turn red"},
    {"check", "",
     "one poll, then gate: exit 3 when any --slo objective is breached"},
    {"validate", "",
     "only validate the given files: .jsonl as cts.events.v1 lines, "
     ".om/.prom/.openmetrics as OpenMetrics 1.0 text, anything else as one "
     "strict RFC 8259 document (trace or stats)"},
    {"quiet", "", "suppress per-worker error lines on stderr"},
    {"help", "", "print usage and exit"},
};

/// Environment variables the harness honours.
inline constexpr EnvDoc kEnvVars[] = {
    {"REPRO_FULL", "run at the paper scale (60 replications x 500k frames)"},
    {"REPRO_REPS", "override the replication count"},
    {"REPRO_FRAMES", "override frames per replication"},
    {"REPRO_SHARD", "run only replication shard I/N (same as --shard)"},
    {"CTS_QUIET", "suppress the stderr progress line (same as --quiet)"},
    {"CTS_BENCH_DIR", "bench-binary directory for cts_simd and cts_shardd"},
    {"CTS_SIMD", "pin the SIMD kernel tier: scalar, sse2, or avx2"},
};

/// One tool's documented surface, for the docs test.
struct ToolDoc {
  const char* tool;
  const FlagDoc* flags;
  std::size_t count;
};

inline constexpr ToolDoc kTools[] = {
    {"bench binaries", kBenchSharedFlags,
     sizeof(kBenchSharedFlags) / sizeof(kBenchSharedFlags[0])},
    {"cts_simd", kSimdFlags, sizeof(kSimdFlags) / sizeof(kSimdFlags[0])},
    {"cts_shardd", kShardDFlags,
     sizeof(kShardDFlags) / sizeof(kShardDFlags[0])},
    {"cts_cacd", kCacdFlags, sizeof(kCacdFlags) / sizeof(kCacdFlags[0])},
    {"cts_scenariod", kScenariodFlags,
     sizeof(kScenariodFlags) / sizeof(kScenariodFlags[0])},
    {"cts_obstop", kObstopFlags,
     sizeof(kObstopFlags) / sizeof(kObstopFlags[0])},
};

/// The names of `flags`, for Flags::warn_unknown known-lists.
template <std::size_t N>
inline std::vector<std::string> flag_names(const FlagDoc (&flags)[N]) {
  std::vector<std::string> names;
  names.reserve(N);
  for (const FlagDoc& flag : flags) names.emplace_back(flag.name);
  return names;
}

}  // namespace cts::util::cli
