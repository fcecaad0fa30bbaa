// cts-shardd: network shard-execution worker for the replication harness.
//
//   cts_shardd [--port=N] [--port-file=PATH] [--bench-dir=DIR]
//              [--work-dir=DIR] [--max-jobs=N] [--fault-exit-after=N]
//              [--log=PATH] [--log-level=LEVEL] [--quiet]
//
// Listens on a TCP port (0 = ephemeral; the chosen port is printed and,
// with --port-file, written to a file the launcher can poll) and answers
// two request schemas on the same port, each connection handled on its own
// thread (the net::Server skeleton shared with cts_cacd,
// cts/net/server.hpp):
//
//   * cts.job.v1 — runs the requested replication shard as a child process
//     and streams the child's cts.shard.v1 file back verbatim inside a
//     cts.jobresult.v1 reply (or a structured error: unknown bench,
//     missing binary, child crash/signal/timeout).  Job children are
//     serialized (one at a time) so a shard's timing is never polluted by
//     a sibling; tools/cts_simd `run --workers=` is the dispatching
//     client.  Every reply carries an `obs` section: the job's metrics
//     shard, its trace spans on this daemon's clock, and the
//     request-received / reply-sent timestamps the dispatcher uses for
//     clock-offset correction when merging traces across workers.
//   * cts.statsreq.v1 — replies immediately (concurrently with any running
//     job) with a cts.stats.v1 snapshot: jobs in flight / ok / failed /
//     retried, a lossless metrics-registry snapshot and the span self-time
//     table.  Stats queries do not count against --max-jobs and do not
//     trigger --fault-exit-after: a monitor must never eat the job budget
//     or trip a fault drill.
//
// Operational events (job start/done/fail, connection errors, shutdown)
// are emitted as cts.events.v1 JSONL — to --log=PATH when given, else to
// stderr unless --quiet; --log-level sets the sink threshold (default
// info).  A fixed-size ring buffer additionally records *every* event, and
// is dumped to <work-dir>/job_<n>_flight.jsonl when a job child times out
// or dies on a signal — the flight recorder for post-mortems.
//
// Safety properties:
//   * the job names a bench by REGISTRY id (bench_suite.hpp); the daemon
//     resolves it against its own --bench-dir and refuses anything not in
//     the registry, so a client can never exec an arbitrary path;
//   * job env is restricted to the REPRO_* scale allowlist, and the
//     child's REPRO_* environment is wiped first, so the shard runs at
//     exactly the requested scale regardless of the daemon's own env;
//   * children are waited with a deadline (job timeout_s, default 600s)
//     and SIGKILLed when it expires — a wedged bench can not wedge the
//     worker.
//
// --fault-exit-after=N is a fault-injection hook for the resilience tests
// and drills: after N jobs are served, the daemon dies abruptly (_Exit)
// upon READING the next job request — from the client's side, a worker
// killed mid-shard.  --max-jobs=N exits cleanly after N jobs (CI smoke
// jobs).  Connection threads are joined, never detached: the clean exit
// waits until every connection's handler has returned, which the request
// read (30s), job timeout and reply write (60s) deadlines bound.
//
// Exit codes: 0 clean shutdown (--max-jobs reached), 2 usage/setup errors.

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite.hpp"
#include "cts/net/job.hpp"
#include "cts/net/server.hpp"
#include "cts/net/socket.hpp"
#include "cts/obs/event_log.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/obs/trace.hpp"
#include "cts/sim/shard.hpp"
#include "cts/util/clock.hpp"
#include "cts/util/cli_registry.hpp"
#include "cts/util/error.hpp"
#include "cts/util/file.hpp"
#include "cts/util/flags.hpp"
#include "cts/util/subprocess.hpp"

namespace fs = std::filesystem;
namespace net = cts::net;
namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

constexpr double kDefaultJobTimeoutS = 600.0;

struct Options {
  std::string bench_dir;
  std::string work_dir = "shardd_work";
  long long fault_exit_after = -1;  ///< <0: disabled
};

void usage() {
  std::printf(
      "usage: cts_shardd [--port=N] [--port-file=PATH] [--bench-dir=DIR]\n"
      "                  [--work-dir=DIR] [--max-jobs=N]\n"
      "                  [--fault-exit-after=N] [--log=PATH]\n"
      "                  [--log-level=debug|info|warn|error] [--quiet]\n"
      "                  [--profile=PATH] [--profile-folded=PATH]\n"
      "                  [--profile-hz=N] [--profile-backend=thread|itimer]\n\n"
      "TCP worker for `cts_simd run --workers=`: accepts cts.job.v1 shard\n"
      "jobs (bench registry id + shard spec + REPRO_* env + deadline), runs\n"
      "the shard as a child process, and streams the cts.shard.v1 payload\n"
      "back with a per-job obs capture.  The same port answers\n"
      "cts.statsreq.v1 with a live cts.stats.v1 status snapshot (see\n"
      "cts_obstop); send {\"format\":\"openmetrics\"} in the request to get\n"
      "an OpenMetrics 1.0 text exposition instead of JSON.  Events go to\n"
      "--log as cts.events.v1 JSONL (default: stderr unless --quiet).\n"
      "--profile samples the active span stacks while the daemon runs and\n"
      "writes a cts.profile.v1 JSON document on clean exit\n"
      "(--profile-folded: collapsed-stack text).  --port=0 picks an\n"
      "ephemeral port (printed, and written to --port-file when given).\n"
      "Exit codes: 0 clean shutdown (--max-jobs), 2 usage or setup error.\n");
}

/// The daemon's own state beside the Server's.  Job children are
/// serialized by `job_mu`; `metrics` is internally synchronized.
struct Shardd {
  Options opt;
  std::atomic<long long> next_job{0};  ///< job requests accepted (names files)
  std::atomic<std::uint64_t> jobs_retried{0};
  std::mutex job_mu;                        ///< one bench child at a time
  obs::MetricsRegistry* metrics = nullptr;  ///< the Server's registry
};

/// Runs one shard job to completion; fills in a cts.jobresult.v1 reply
/// including the per-job obs capture.  Called with d->job_mu held, so the
/// trace slice [event_count() at entry, end) belongs to this job alone.
net::JobResult run_job(const net::JobRequest& job, long long job_index,
                       std::int64_t recv_us, Shardd* d) {
  const Options& opt = d->opt;
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  const std::size_t span_begin = recorder.event_count();
  net::JobResult result;
  result.has_obs = true;
  result.obs.recv_us = recv_us;
  // Queue wait: request receipt to here — time spent behind the job_mu
  // serialization (and the request parse).  A hot SLO input: a fast worker
  // with a deep queue is slow from the dispatcher's seat.
  const double queue_wait_ms =
      static_cast<double>(recorder.now_us() - recv_us) / 1e3;
  const double start = cu::monotonic_s();
  const std::string tag = std::to_string(job_index);

  {
    obs::ScopedSpan job_span("shardd.job");

    // The registry is the allowlist: an id it does not know throws here and
    // becomes a structured error reply, never an exec.
    const bench::BenchSpec& spec = bench::spec(job.bench_id);
    const std::string binary =
        (fs::path(opt.bench_dir) / spec.binary).string();
    if (::access(binary.c_str(), X_OK) != 0) {
      result.error = "bench binary " + binary + " is not executable";
    } else {
      const std::string shard_path =
          (fs::path(opt.work_dir) / ("job_" + tag + "_shard.json")).string();
      const std::string log_path =
          (fs::path(opt.work_dir) / ("job_" + tag + ".log")).string();
      const std::string shard_flag =
          "--shard=" + cts::sim::format_shard_spec({job.shard_index,
                                                    job.shard_count});
      const std::string out_flag = "--shard-out=" + shard_path;

      const pid_t pid = ::fork();
      if (pid < 0) {
        result.error = std::string("fork failed: ") + std::strerror(errno);
      } else if (pid == 0) {
        // The job's env is authoritative: wipe every scale override the
        // daemon itself inherited, then apply exactly what the client sent.
        for (const std::string& name : net::job_env_allowlist()) {
          ::unsetenv(name.c_str());
        }
        ::unsetenv("REPRO_SHARD");
        for (const auto& [name, value] : job.env) {
          ::setenv(name.c_str(), value.c_str(), 1);
        }
        std::FILE* log = std::freopen(log_path.c_str(), "w", stdout);
        if (log != nullptr) ::dup2(STDOUT_FILENO, STDERR_FILENO);
        ::execl(binary.c_str(), binary.c_str(), shard_flag.c_str(),
                out_flag.c_str(), "--quiet", static_cast<char*>(nullptr));
        std::perror("cts_shardd: execl");
        std::_Exit(127);
      } else {
        const double timeout_s =
            job.timeout_s > 0 ? job.timeout_s : kDefaultJobTimeoutS;
        cu::WaitOutcome outcome;
        {
          obs::ScopedSpan exec_span("shardd.exec");
          outcome = cu::wait_child(pid, timeout_s);
        }
        if (!outcome.ok()) {
          result.error = std::string(spec.binary) + " " + outcome.describe() +
                         " (shard " + std::to_string(job.shard_index) + "/" +
                         std::to_string(job.shard_count) + ")";
          ::unlink(shard_path.c_str());
          if (outcome.kind == cu::WaitOutcome::Kind::kTimeout ||
              outcome.kind == cu::WaitOutcome::Kind::kSignaled) {
            // Flight recorder: dump the full event ring (all levels) so a
            // post-mortem sees what the daemon did right before the kill.
            const std::string flight_path =
                (fs::path(opt.work_dir) / ("job_" + tag + "_flight.jsonl"))
                    .string();
            if (obs::EventLog::global().dump_ring_to(flight_path)) {
              obs::log_error("job.flight_recorder",
                             {{"job", static_cast<std::int64_t>(job_index)},
                              {"path", flight_path},
                              {"outcome", outcome.describe()}});
            }
          }
        } else {
          obs::ScopedSpan validate_span("shardd.validate");
          try {
            const std::string text = cu::read_text_file(shard_path);
            (void)cts::sim::parse_shard_file(text);  // refuse broken files
            result.shard_json = text;
            result.ok = true;
          } catch (const cu::Error& e) {
            result.error = std::string("shard file invalid: ") + e.what();
          }
          ::unlink(shard_path.c_str());
        }
      }
    }
  }  // closes "shardd.job"

  result.elapsed_s = cu::monotonic_s() - start;

  // Per-job metrics shard: shipped to the dispatcher as-is (it merges
  // per-job deltas, never cumulative totals) and folded into the daemon's
  // own registry for the stats endpoint.
  obs::MetricsShard job_metrics;
  job_metrics.add(result.ok ? "shardd.jobs_ok" : "shardd.jobs_failed");
  if (job.attempt > 1) job_metrics.add("shardd.jobs_retried");
  job_metrics.observe_log("shardd.job_wall_ms", result.elapsed_s * 1e3);
  job_metrics.observe_log("shardd.queue_wait_ms", queue_wait_ms);
  d->metrics->merge(job_metrics);
  result.obs.metrics = std::move(job_metrics);

  const std::vector<obs::TraceEvent> all = recorder.events();
  result.obs.spans.assign(
      all.begin() + static_cast<std::ptrdiff_t>(
                        std::min(span_begin, all.size())),
      all.end());
  result.obs.send_us = recorder.now_us();
  return result;
}

/// One cts.job.v1 request, on its connection's thread.
void handle_job(net::Exchange& exchange, Shardd* d) {
  const Options& opt = d->opt;
  if (opt.fault_exit_after >= 0 &&
      exchange.served_before() >= opt.fault_exit_after) {
    // Fault-injection hook: die abruptly mid-job, reply never sent.
    std::_Exit(137);
  }
  const long long job_index = d->next_job++;

  net::JobResult result;
  int attempt = 0;
  try {
    const net::JobRequest job = net::parse_job(exchange.request());
    attempt = job.attempt;
    obs::log_debug(
        "job.start",
        {{"job", static_cast<std::int64_t>(job_index)},
         {"bench", job.bench_id},
         {"shard", std::to_string(job.shard_index) + "/" +
                       std::to_string(job.shard_count)},
         {"attempt", job.attempt}});
    {
      const std::lock_guard<std::mutex> job_lock(d->job_mu);
      result = run_job(job, job_index, exchange.recv_us(), d);
    }
    // The per-job summary line: everything a post-mortem grep needs.
    obs::log_info(
        result.ok ? "job.done" : "job.fail",
        {{"job", static_cast<std::int64_t>(job_index)},
         {"bench", job.bench_id},
         {"shard", std::to_string(job.shard_index) + "/" +
                       std::to_string(job.shard_count)},
         {"wall_ms", result.elapsed_s * 1e3},
         {"status", result.ok ? "ok" : result.error},
         {"attempt", job.attempt}});
  } catch (const cu::Error& e) {
    result.ok = false;
    result.error = e.what();
    obs::log_warn("job.reject", {{"job", static_cast<std::int64_t>(job_index)}, {"error", e.what()}});
  }
  exchange.reply(net::write_job_result_json(result), result.ok);
  if (attempt > 1) ++d->jobs_retried;
}

int serve(net::ServerConfig config, Options opt) {
  net::Server server(std::move(config));
  Shardd d;
  d.opt = std::move(opt);
  d.metrics = &server.metrics();
  net::Service service;
  service.handle = [&d](net::Exchange& ex) { handle_job(ex, &d); };
  service.add_stats = [&d](net::WorkerStats& stats) {
    stats.jobs_retried = d.jobs_retried.load();
  };
  return server.run(service);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cu::Flags flags(argc, argv);
    if (flags.get_bool("help", false)) {
      usage();
      return 0;
    }
    flags.warn_unknown(std::cerr, cu::cli::flag_names(cu::cli::kShardDFlags));

    net::ServerConfig config =
        net::daemon_config(flags, "cts_shardd", "shardd", "job");
    Options opt;
    opt.work_dir = flags.get_string("work-dir", "shardd_work");
    opt.fault_exit_after = flags.get_int("fault-exit-after", -1);

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
    cu::make_dirs(opt.work_dir);
    config.listen_note = " (bench dir " + opt.bench_dir + ")";
    config.start_fields = {{"bench_dir", opt.bench_dir}};
    return serve(std::move(config), std::move(opt));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cts_shardd: %s\n", e.what());
    return 2;
  }
}
