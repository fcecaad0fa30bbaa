// cts-simd: multi-process / multi-machine shard orchestrator for the
// replication benches.
//
//   cts_simd run BENCH_BINARY [--shards=N] [--out-dir=DIR] [--metrics=PATH]
//                             [--keep-shards] [--timeout=SECS] [--quiet]
//   cts_simd run BENCH_ID --workers=HOST:PORT,... [--shards=N]
//                             [--job-timeout=SECS] [--retries=N]
//                             [--bench-dir=DIR] [--dispatch-metrics=PATH]
//                             [--trace=PATH] [...common flags]
//   cts_simd merge SHARD.json... [--metrics=PATH] [--quiet]
//   cts_simd diff REPORT_A.json REPORT_B.json [--quiet]
//
// Local `run` fork/execs N worker shards of BENCH_BINARY (each gets
// --shard=i/N --shard-out=<dir>/shard_i.json --quiet, stdout/stderr to
// <dir>/shard_i.log), waits for all of them — with --timeout=SECS a
// straggler is SIGKILLed and reported instead of wedging the orchestrator
// forever — merges the shard files and writes the merged --metrics run
// report.  With --workers= the same shards are dispatched as cts.job.v1
// jobs to cts_shardd daemons over TCP: BENCH becomes a bench REGISTRY id
// (the workers refuse arbitrary paths), each job carries the REPRO_* scale
// from this process's environment plus a per-job deadline, failures and
// timeouts are retried with exponential backoff and reassigned to another
// worker, and when every worker is down the remaining shards fall back to
// local fork/exec.  Replication scale still comes from the environment
// (REPRO_FULL / REPRO_REPS / REPRO_FRAMES), which workers inherit via the
// job env.  The merge path is identical in every mode — a loopback
// multi-worker run is `cts_simd diff`-identical to a single-process run.
//
// `merge` does the same for pre-written cts.shard.v1 files (e.g. collected
// from separate machines).  `diff` compares the metrics sections of two
// run reports the way a shard merge can match a single-process run:
// counters exactly, sums to 1e-9 relative tolerance (Kahan summation is
// order-sensitive across shard boundaries), gauges exactly except the
// layout-dependent {sim.threads, sim.shard.index, sim.shard.count}, and
// log-bucketed latency histograms by count only when the name contains
// "_ms" (timings are never reproducible).  A section missing from one
// report entirely is a reported difference (exit 1), not a parse error.
//
// Exit codes: 0 success / reports match, 1 worker failure / merge error /
// reports differ, 2 usage or parse errors.
//
// Note: pass value flags in --key=value form; positional arguments that
// follow a bare boolean flag would otherwise be consumed as its value.

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite.hpp"
#include "cts/net/job.hpp"
#include "cts/net/retry.hpp"
#include "cts/net/socket.hpp"
#include "cts/obs/event_log.hpp"
#include "cts/obs/json.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/obs/profiler.hpp"
#include "cts/obs/run_report.hpp"
#include "cts/obs/trace.hpp"
#include "cts/obs/trace_merge.hpp"
#include "cts/sim/replication.hpp"
#include "cts/sim/shard.hpp"
#include "cts/util/cli_registry.hpp"
#include "cts/util/clock.hpp"
#include "cts/util/error.hpp"
#include "cts/util/file.hpp"
#include "cts/util/flags.hpp"
#include "cts/util/subprocess.hpp"
#include "cts/util/table.hpp"

namespace fs = std::filesystem;
namespace net = cts::net;
namespace obs = cts::obs;
namespace sim = cts::sim;
namespace cu = cts::util;

namespace {

void usage() {
  std::printf(
      "usage: cts_simd run BENCH_BINARY [--shards=N] [--out-dir=DIR]\n"
      "                    [--metrics=PATH] [--keep-shards] "
      "[--timeout=SECS]\n"
      "                    [--quiet]\n"
      "       cts_simd run BENCH_ID --workers=HOST:PORT,... [--shards=N]\n"
      "                    [--job-timeout=SECS] [--retries=N] "
      "[--bench-dir=DIR]\n"
      "                    [--dispatch-metrics=PATH] [--trace=PATH]\n"
      "                    [--profile=PATH] [--profile-folded=PATH]\n"
      "                    [--profile-hz=N] "
      "[--profile-backend=thread|itimer]\n"
      "                    [--log=PATH] [--log-level=LEVEL] [...]\n"
      "       cts_simd merge SHARD.json... [--metrics=PATH] [--quiet]\n"
      "       cts_simd diff REPORT_A.json REPORT_B.json [--quiet]\n\n"
      "Scale comes from the environment the workers inherit: REPRO_FULL=1,\n"
      "REPRO_REPS, REPRO_FRAMES (forwarded inside the job in --workers "
      "mode).\n"
      "Exit codes: 0 success/match, 1 failure/mismatch, 2 usage or parse "
      "error.\n");
}

/// Tokens not consumed by the flag parser, mirroring Flags' rule that a
/// bare "--key" followed by a non-flag token takes it as its value.
std::vector<std::string> positionals(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      if (token.find('=') == std::string::npos && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        ++i;  // "--key value"
      }
      continue;
    }
    out.push_back(token);
  }
  return out;
}

// -------------------------------------------------------------------------
// merge + report emission (shared by `run` and `merge`)

/// Folds the merged shard set into this (otherwise idle) process's global
/// registry and writes the same {"config":...,"metrics":...} run report a
/// single-process bench run with --metrics would produce.
bool write_merged_report(const sim::MergedShards& merged,
                         const std::string& metrics_path, bool quiet) {
  obs::MetricsRegistry::global().merge(merged.metrics);
  obs::RunReport report;
  report.set("run_id", "cts_simd");
  report.set("tool", "cts_simd");
  report.set("shard_count", static_cast<std::uint64_t>(merged.shard_count));
  report.set("experiments",
             static_cast<std::uint64_t>(merged.experiments.size()));
  if (!merged.experiments.empty()) {
    const sim::ReplicationConfig& config = merged.experiments.front().config;
    report.set("replications", static_cast<std::uint64_t>(config.replications));
    report.set("frames_per_replication", config.frames_per_replication);
    report.set("warmup_frames", config.warmup_frames);
    report.set("master_seed", config.master_seed);
  }
  if (!report.write(metrics_path)) {
    std::fprintf(stderr, "cts_simd: could not write metrics to %s\n",
                 metrics_path.c_str());
    return false;
  }
  if (!quiet) {
    std::printf("[merged metrics written to %s]\n", metrics_path.c_str());
  }
  return true;
}

void print_merged_summary(const sim::MergedShards& merged) {
  std::printf("merged %zu shard(s), %zu experiment(s)\n", merged.shard_count,
              merged.experiments.size());
  for (const sim::MergedExperiment& experiment : merged.experiments) {
    std::printf("\n%s: %zu reps x %llu frames, seed %llu\n",
                experiment.label.c_str(), experiment.config.replications,
                static_cast<unsigned long long>(
                    experiment.config.frames_per_replication),
                static_cast<unsigned long long>(
                    experiment.config.master_seed));
    cu::TextTable table({"B (cells)", "pooled CLR", "CI low", "CI high"});
    for (const sim::ClrEstimate& est : experiment.result.clr) {
      table.add_row({cu::format_fixed(est.buffer_cells, 0),
                     cu::format_sci(est.pooled_clr, 4),
                     cu::format_sci(est.clr.low(), 4),
                     cu::format_sci(est.clr.high(), 4)});
    }
    std::printf("%s\n", table.render().c_str());
  }
}

int merge_and_report(const std::vector<std::string>& shard_paths,
                     const std::string& metrics_path, bool quiet) {
  std::vector<sim::ShardFile> shards;
  shards.reserve(shard_paths.size());
  for (const std::string& path : shard_paths) {
    shards.push_back(sim::read_shard_file(path));
  }
  const sim::MergedShards merged = sim::merge_shard_files(shards);
  if (!quiet) print_merged_summary(merged);
  return write_merged_report(merged, metrics_path, quiet) ? 0 : 1;
}

// -------------------------------------------------------------------------
// local run

/// Fork/execs one local shard worker of `binary`, stdout+stderr to
/// `log_path`.  Returns -1 when fork fails.
pid_t spawn_local_shard(const std::string& binary, const sim::ShardSpec& spec,
                        const std::string& shard_path,
                        const std::string& log_path) {
  const std::string shard_flag = "--shard=" + sim::format_shard_spec(spec);
  const std::string out_flag = "--shard-out=" + shard_path;
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("cts_simd: fork");
    return -1;
  }
  if (pid == 0) {
    const int fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execl(binary.c_str(), binary.c_str(), shard_flag.c_str(),
            out_flag.c_str(), "--quiet", static_cast<char*>(nullptr));
    std::perror("cts_simd: execl");
    std::_Exit(127);
  }
  return pid;
}

int run_workers(const std::string& binary, std::size_t shard_count,
                const std::string& out_dir, const std::string& metrics_path,
                bool keep_shards, double timeout_s, bool quiet) {
  if (::access(binary.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "cts_simd: %s is not an executable\n",
                 binary.c_str());
    return 2;
  }
  cu::make_dirs(out_dir);  // throws up front, naming the path

  std::vector<std::string> shard_paths;
  std::vector<std::string> log_paths;
  std::vector<pid_t> pids;
  for (std::size_t i = 0; i < shard_count; ++i) {
    const std::string tag = std::to_string(i);
    shard_paths.push_back(out_dir + "/shard_" + tag + ".json");
    log_paths.push_back(out_dir + "/shard_" + tag + ".log");
    const pid_t pid = spawn_local_shard(binary, {i, shard_count},
                                        shard_paths.back(), log_paths.back());
    if (pid < 0) return 1;
    pids.push_back(pid);
    if (!quiet) {
      std::printf("[worker %zu/%zu: pid %d, log %s]\n", i, shard_count,
                  static_cast<int>(pid), log_paths.back().c_str());
    }
  }

  // One shared deadline across all workers; a straggler past it is killed
  // and reported (the old code blocked in waitpid forever).
  const double deadline = cu::monotonic_s() + timeout_s;
  bool failed = false;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    const double remaining =
        timeout_s <= 0 ? -1.0 : std::max(0.0, deadline - cu::monotonic_s());
    const cu::WaitOutcome outcome = cu::wait_child(pids[i], remaining);
    if (!outcome.ok()) {
      std::fprintf(stderr, "cts_simd: worker %zu %s (see %s)\n", i,
                   outcome.describe().c_str(), log_paths[i].c_str());
      failed = true;
    }
  }
  if (failed) return 1;

  const int rc = merge_and_report(shard_paths, metrics_path, quiet);
  if (rc == 0 && !keep_shards) {
    for (const std::string& path : shard_paths) ::unlink(path.c_str());
  }
  return rc;
}

// -------------------------------------------------------------------------
// networked run (--workers=)

struct NetRunOptions {
  std::string bench_id;
  std::size_t shards = 2;
  std::string out_dir;
  std::string metrics_path;
  std::string bench_dir;              ///< local-fallback binary directory
  std::string dispatch_metrics_path;  ///< "" = off
  std::string trace_path;             ///< "" = off
  std::vector<net::Endpoint> workers;
  double job_timeout_s = 300;
  int retries = 3;
  obs::ProfileRequest profile;         ///< --profile* ("" paths = off)
  bool keep_shards = false;
  bool quiet = false;
};

/// Arms the dispatcher's sampling profiler when --profile/--profile-folded
/// asked for one, and flushes it on scope exit — the early error returns in
/// run_networked still leave a usable profile behind.
class DispatchProfile {
 public:
  explicit DispatchProfile(const NetRunOptions& opt) : opt_(opt) {
    if (!opt_.profile.wanted()) return;
    obs::Profiler::global().start(opt_.profile.sampling);
    started_ = true;
  }
  ~DispatchProfile() {
    if (!started_) return;
    const std::uint64_t samples = obs::finish_profile(opt_.profile, "cts_simd");
    if (!opt_.quiet) {
      std::printf("[profile (%llu samples) written to %s]\n",
                  static_cast<unsigned long long>(samples),
                  opt_.profile.shown_path().c_str());
    }
  }
  DispatchProfile(const DispatchProfile&) = delete;
  DispatchProfile& operator=(const DispatchProfile&) = delete;

 private:
  const NetRunOptions& opt_;
  bool started_ = false;
};

/// Consecutive failures after which a worker endpoint is declared down and
/// its dispatch thread exits (remaining work is reassigned or falls back).
constexpr int kWorkerDownAfter = 3;

/// Shared dispatch state; every field is guarded by `mu`.
struct DispatchState {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> queue;        ///< shards awaiting a worker
  std::vector<int> attempts;            ///< per-shard dispatch attempts
  std::vector<int> last_failed_on;      ///< worker of the last failure, -1
  std::vector<std::string> payloads;    ///< per-shard cts.shard.v1 text
  std::vector<std::size_t> fallback;    ///< shards left for local fork/exec
  /// Per worker endpoint: that worker's job spans, already clock-corrected
  /// onto the dispatcher timeline — the merged trace's per-worker lanes.
  std::vector<std::vector<obs::TraceEvent>> worker_spans;
  std::size_t done = 0;
  std::size_t live_workers = 0;

  bool settled(std::size_t n) const { return done + fallback.size() == n; }

  /// A requeued shard prefers a worker other than the one it just failed
  /// on (that is what makes failure reassignment an actual reassignment);
  /// the last live worker takes anything.  Returns the queue position of a
  /// shard worker `w` may take, or queue.size() when there is none.
  std::size_t claimable(std::size_t w) const {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (live_workers <= 1 ||
          last_failed_on[queue[i]] != static_cast<int>(w)) {
        return i;
      }
    }
    return queue.size();
  }
};

/// The worker-side obs capture of one successful job, already mapped onto
/// the dispatcher's clock.
struct JobObsCapture {
  bool has = false;
  std::int64_t offset_us = 0;  ///< worker-minus-dispatcher clock offset
  obs::MetricsShard metrics;   ///< the job's metrics delta
  std::vector<obs::TraceEvent> spans;  ///< ts already offset-corrected
};

/// Runs one job against one worker; returns the shard payload via *out and
/// the job's obs capture via *obs_out.  The send/receive timestamps around
/// the exchange are the t0/t3 of the NTP-style offset estimate (see
/// trace_merge.hpp); the worker supplies t1/t2 inside the reply.
bool dispatch_one(const net::Endpoint& ep, const net::JobRequest& job,
                  double job_timeout_s, std::string* out, std::string* error,
                  JobObsCapture* obs_out) {
  try {
    obs::ScopedSpan span("simd.net.job");
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    net::Socket sock =
        net::connect_to(ep, std::min(10.0, job_timeout_s));
    const std::int64_t t0 = recorder.now_us();
    net::send_frame(sock, net::write_job_json(job), 30.0);
    const std::string reply = net::recv_frame(sock, job_timeout_s);
    const std::int64_t t3 = recorder.now_us();
    const net::JobResult result = net::parse_job_result(reply);
    if (!result.ok) {
      *error = ep.str() + ": " + result.error;
      return false;
    }
    if (result.has_obs) {
      obs_out->has = true;
      obs_out->offset_us = obs::estimate_clock_offset_us(
          t0, result.obs.recv_us, result.obs.send_us, t3);
      obs_out->metrics = result.obs.metrics;
      obs_out->spans = result.obs.spans;
      for (obs::TraceEvent& e : obs_out->spans) e.ts_us -= obs_out->offset_us;
    }
    *out = result.shard_json;
    return true;
  } catch (const std::exception& e) {
    *error = ep.str() + ": " + e.what();
    return false;
  }
}

/// One dispatch thread: pulls shards off the queue, runs them on `ep`,
/// requeues failures (bounded per-shard attempts), and declares the worker
/// down after kWorkerDownAfter consecutive failures.
void worker_thread(const net::Endpoint& ep, std::size_t worker_index,
                   const NetRunOptions& opt, const net::RetryPolicy& policy,
                   std::vector<std::pair<std::string, std::string>> env,
                   DispatchState* st, obs::MetricsRegistry* dispatch) {
  const std::string wtag = "simd.net.worker." + std::to_string(worker_index);
  int consecutive_failures = 0;
  for (;;) {
    std::size_t shard = 0;
    int attempt = 0;
    {
      std::unique_lock<std::mutex> lk(st->mu);
      std::size_t pos = 0;
      st->cv.wait(lk, [&] {
        pos = st->claimable(worker_index);
        return pos < st->queue.size() || st->settled(opt.shards);
      });
      if (pos >= st->queue.size()) return;  // everything done or given up
      shard = st->queue[pos];
      st->queue.erase(st->queue.begin() +
                      static_cast<std::ptrdiff_t>(pos));
      attempt = ++st->attempts[shard];
    }

    const double backoff = policy.delay_s(attempt);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      dispatch->add("simd.net.retries");
    }

    net::JobRequest job;
    job.bench_id = opt.bench_id;
    job.shard_index = shard;
    job.shard_count = opt.shards;
    job.env = std::move(env);
    job.timeout_s = opt.job_timeout_s;
    job.attempt = attempt;
    const double start = cu::monotonic_s();
    std::string payload;
    std::string error;
    JobObsCapture capture;
    const bool ok =
        dispatch_one(ep, job, opt.job_timeout_s, &payload, &error, &capture);
    env = std::move(job.env);  // reused across this thread's jobs
    const double wall_ms = (cu::monotonic_s() - start) * 1e3;
    dispatch->observe_log("simd.net.job_wall_ms", wall_ms);
    dispatch->observe_log(wtag + ".wall_ms", wall_ms);
    dispatch->add("simd.net.jobs_dispatched");
    if (capture.has) {
      // The worker's per-job metrics delta joins the dispatch registry —
      // never the global one, which must stay diff-identical to a
      // single-process run.
      dispatch->merge(capture.metrics);
      dispatch->gauge(wtag + ".clock_offset_us",
                      static_cast<double>(capture.offset_us));
    }

    std::unique_lock<std::mutex> lk(st->mu);
    if (ok) {
      st->payloads[shard] = std::move(payload);
      ++st->done;
      consecutive_failures = 0;
      dispatch->add("simd.net.jobs_ok");
      dispatch->add(wtag + ".ok");
      if (capture.has) {
        st->worker_spans[worker_index].insert(
            st->worker_spans[worker_index].end(), capture.spans.begin(),
            capture.spans.end());
      }
      obs::log_info("job.ok",
                    {{"shard", static_cast<std::uint64_t>(shard)},
                     {"worker", ep.str()},
                     {"attempt", attempt},
                     {"wall_ms", wall_ms},
                     {"clock_offset_us",
                      static_cast<std::int64_t>(capture.offset_us)}});
      if (!opt.quiet) {
        std::printf("[shard %zu/%zu done on %s in %.0f ms]\n", shard,
                    opt.shards, ep.str().c_str(), wall_ms);
      }
    } else {
      dispatch->add("simd.net.jobs_failed");
      dispatch->add(wtag + ".fail");
      ++consecutive_failures;
      obs::log_warn("job.fail",
                    {{"shard", static_cast<std::uint64_t>(shard)},
                     {"worker", ep.str()},
                     {"attempt", attempt},
                     {"error", error}});
      std::fprintf(stderr,
                   "cts_simd: shard %zu attempt %d failed on %s: %s\n",
                   shard, attempt, ep.str().c_str(), error.c_str());
      st->last_failed_on[shard] = static_cast<int>(worker_index);
      if (st->attempts[shard] >= policy.max_attempts) {
        st->fallback.push_back(shard);  // retry budget exhausted
      } else {
        st->queue.push_back(shard);  // reassigned by claimable()
      }
    }
    const bool worker_down = consecutive_failures >= kWorkerDownAfter;
    if (worker_down) --st->live_workers;
    lk.unlock();
    st->cv.notify_all();
    if (worker_down) {
      dispatch->add("simd.net.workers_down");
      obs::log_error("worker.down",
                     {{"worker", ep.str()},
                      {"consecutive_failures", consecutive_failures}});
      std::fprintf(stderr,
                   "cts_simd: worker %s down after %d consecutive "
                   "failures\n",
                   ep.str().c_str(), consecutive_failures);
      return;
    }
  }
}

int run_networked(const NetRunOptions& opt) {
  // The registry doubles as the allowlist on this side too: an unknown id
  // fails here (exit 2) before any network traffic.
  const bench::BenchSpec& spec = bench::spec(opt.bench_id);
  cu::make_dirs(opt.out_dir);
  if (!opt.trace_path.empty()) obs::TraceRecorder::global().enable();
  DispatchProfile profile(opt);
  std::string worker_list;
  for (const net::Endpoint& ep : opt.workers) {
    if (!worker_list.empty()) worker_list += ",";
    worker_list += ep.str();
  }
  obs::log_info("run.start",
                {{"bench", opt.bench_id},
                 {"shards", static_cast<std::uint64_t>(opt.shards)},
                 {"workers", worker_list}});

  // Forward this process's REPRO_* scale inside the job so every worker —
  // and a local fallback child, which inherits the environment directly —
  // runs at the same scale.
  std::vector<std::pair<std::string, std::string>> env;
  for (const std::string& name : net::job_env_allowlist()) {
    const char* value = std::getenv(name.c_str());
    if (value != nullptr && value[0] != '\0') env.emplace_back(name, value);
  }

  net::RetryPolicy policy;
  policy.max_attempts = opt.retries;

  // Dispatch metrics live in their own registry, NOT the global one: the
  // global registry receives the merged shard metrics, and polluting it
  // with dispatch counters would break `cts_simd diff` bit-identity
  // against a single-process run.
  obs::MetricsRegistry dispatch;
  dispatch.gauge("simd.net.workers", static_cast<double>(opt.workers.size()));
  dispatch.gauge("simd.net.shards", static_cast<double>(opt.shards));

  DispatchState st;
  st.attempts.assign(opt.shards, 0);
  st.last_failed_on.assign(opt.shards, -1);
  st.payloads.assign(opt.shards, std::string());
  st.worker_spans.assign(opt.workers.size(), {});
  st.live_workers = opt.workers.size();
  for (std::size_t i = 0; i < opt.shards; ++i) st.queue.push_back(i);

  {
    obs::ScopedSpan span("simd.net.dispatch");
    std::vector<std::thread> threads;
    threads.reserve(opt.workers.size());
    for (std::size_t w = 0; w < opt.workers.size(); ++w) {
      threads.emplace_back(worker_thread, opt.workers[w], w, std::cref(opt),
                           std::cref(policy), env, &st, &dispatch);
    }
    for (std::thread& t : threads) t.join();
  }

  // Whatever the workers could not finish — retry budgets exhausted, or
  // every endpoint down with shards still queued — runs locally.
  std::vector<std::size_t> local;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    local = st.fallback;
    for (const std::size_t shard : st.queue) local.push_back(shard);
  }
  std::vector<std::string> shard_paths(opt.shards);
  for (std::size_t i = 0; i < opt.shards; ++i) {
    shard_paths[i] = opt.out_dir + "/shard_" + std::to_string(i) + ".json";
  }
  for (std::size_t i = 0; i < opt.shards; ++i) {
    if (st.payloads[i].empty()) continue;
    std::ofstream out(shard_paths[i], std::ios::binary);
    out << st.payloads[i];
    if (!out) {
      std::fprintf(stderr, "cts_simd: could not write %s\n",
                   shard_paths[i].c_str());
      return 1;
    }
  }

  if (!local.empty()) {
    const std::string binary =
        (fs::path(opt.bench_dir) / spec.binary).string();
    if (::access(binary.c_str(), X_OK) != 0) {
      std::fprintf(stderr,
                   "cts_simd: %zu shard(s) undispatched and the local "
                   "fallback binary %s is not executable\n",
                   local.size(), binary.c_str());
      return 1;
    }
    dispatch.add("simd.net.local_fallback_shards",
                 static_cast<std::uint64_t>(local.size()));
    obs::log_warn("fallback",
                  {{"shards", static_cast<std::uint64_t>(local.size())}});
    if (!opt.quiet) {
      std::printf("[falling back to local fork/exec for %zu shard(s)]\n",
                  local.size());
    }
    obs::ScopedSpan span("simd.net.local_fallback");
    std::vector<pid_t> pids;
    std::vector<std::string> logs;
    for (const std::size_t shard : local) {
      logs.push_back(opt.out_dir + "/shard_" + std::to_string(shard) +
                     ".log");
      const pid_t pid = spawn_local_shard(binary, {shard, opt.shards},
                                          shard_paths[shard], logs.back());
      if (pid < 0) return 1;
      pids.push_back(pid);
    }
    const double deadline = cu::monotonic_s() + opt.job_timeout_s;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      const double remaining = std::max(0.0, deadline - cu::monotonic_s());
      const cu::WaitOutcome outcome = cu::wait_child(pids[i], remaining);
      if (!outcome.ok()) {
        if (outcome.kind == cu::WaitOutcome::Kind::kTimeout ||
            outcome.kind == cu::WaitOutcome::Kind::kSignaled) {
          // Flight recorder: everything the dispatcher logged (any level)
          // right up to the kill, for the post-mortem.
          const std::string flight_path =
              opt.out_dir + "/fallback_flight.jsonl";
          if (obs::EventLog::global().dump_ring_to(flight_path)) {
            obs::log_error("fallback.flight_recorder",
                           {{"shard",
                             static_cast<std::uint64_t>(local[i])},
                            {"path", flight_path},
                            {"outcome", outcome.describe()}});
          }
        }
        std::fprintf(stderr, "cts_simd: local fallback shard %zu %s (see "
                             "%s)\n",
                     local[i], outcome.describe().c_str(), logs[i].c_str());
        return 1;
      }
    }
  }

  const int rc = merge_and_report(shard_paths, opt.metrics_path, opt.quiet);

  if (!opt.dispatch_metrics_path.empty()) {
    obs::RunReport report;
    report.set("run_id", "cts_simd_dispatch");
    report.set("tool", "cts_simd");
    report.set("mode", "workers");
    report.set("bench", opt.bench_id);
    report.set("workers", worker_list);
    report.set("shards", static_cast<std::uint64_t>(opt.shards));
    report.set("retries", static_cast<std::int64_t>(opt.retries));
    report.set("job_timeout_s", opt.job_timeout_s);
    if (!report.write(opt.dispatch_metrics_path, dispatch)) {
      std::fprintf(stderr, "cts_simd: could not write dispatch metrics to "
                           "%s\n",
                   opt.dispatch_metrics_path.c_str());
    } else if (!opt.quiet) {
      std::printf("[dispatch metrics written to %s]\n",
                  opt.dispatch_metrics_path.c_str());
    }
  }
  if (!opt.trace_path.empty()) {
    // One merged Chrome trace: the dispatcher's own spans in lane pid 1,
    // then one lane per worker with that worker's job spans, already
    // clock-corrected onto the dispatcher timeline (per-job NTP offsets
    // were applied at receive time, so every lane's offset here is 0).
    std::vector<obs::ProcessTrace> lanes;
    lanes.push_back(
        {"cts_simd dispatcher", 1, 0, obs::TraceRecorder::global().events()});
    for (std::size_t w = 0; w < opt.workers.size(); ++w) {
      std::vector<obs::TraceEvent> spans;
      {
        std::lock_guard<std::mutex> lk(st.mu);
        spans = st.worker_spans[w];
      }
      lanes.push_back({"worker " + opt.workers[w].str(),
                       static_cast<int>(2 + w), 0, std::move(spans)});
    }
    if (!obs::write_merged_trace(opt.trace_path, lanes)) {
      std::fprintf(stderr, "cts_simd: could not write trace to %s\n",
                   opt.trace_path.c_str());
    } else if (!opt.quiet) {
      std::printf("[merged trace (%zu lane(s)) written to %s]\n",
                  lanes.size(), opt.trace_path.c_str());
    }
  }
  obs::log_info("run.done",
                {{"bench", opt.bench_id},
                 {"rc", rc},
                 {"fallback_shards",
                  static_cast<std::uint64_t>(local.size())}});

  if (rc == 0 && !opt.keep_shards) {
    for (const std::string& path : shard_paths) ::unlink(path.c_str());
  }
  return rc;
}

// -------------------------------------------------------------------------
// diff

/// The metrics section of a run report, or the document itself when it is
/// already a bare metrics object.
const obs::JsonValue& metrics_of(const obs::JsonValue& doc) {
  const obs::JsonValue* metrics = doc.find("metrics");
  return metrics != nullptr ? *metrics : doc;
}

bool skipped_gauge(const std::string& name) {
  return name == "sim.threads" || name == "sim.shard.index" ||
         name == "sim.shard.count";
}

bool close_rel(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= std::max(1e-12, 1e-9 * scale);
}

/// Reports every difference; returns the number found.
std::size_t diff_metrics(const obs::JsonValue& a, const obs::JsonValue& b,
                         bool quiet) {
  std::size_t differences = 0;
  const auto report = [&](const std::string& what) {
    ++differences;
    if (!quiet) std::printf("DIFF: %s\n", what.c_str());
  };

  const auto keys_of = [](const obs::JsonValue& section) {
    std::vector<std::string> keys;
    for (const auto& [name, value] : section.members) {
      (void)value;
      keys.push_back(name);
    }
    return keys;
  };
  // A report with no such section at all diffs as an empty section: every
  // entry present on the other side is reported as a difference (exit 1),
  // instead of at() throwing and turning a comparison into exit 2.
  static const obs::JsonValue kEmptySection = [] {
    obs::JsonValue v;
    v.type = obs::JsonValue::Type::kObject;
    return v;
  }();
  const auto for_union = [&](const char* section,
                             const auto& visit) {
    const obs::JsonValue* pa = a.find(section);
    const obs::JsonValue* pb = b.find(section);
    const obs::JsonValue& sa = pa != nullptr ? *pa : kEmptySection;
    const obs::JsonValue& sb = pb != nullptr ? *pb : kEmptySection;
    std::vector<std::string> keys = keys_of(sa);
    for (const std::string& k : keys_of(sb)) {
      bool seen = false;
      for (const std::string& have : keys) seen = seen || have == k;
      if (!seen) keys.push_back(k);
    }
    for (const std::string& k : keys) visit(k, sa.find(k), sb.find(k));
  };

  for_union("counters", [&](const std::string& name, const obs::JsonValue* va,
                            const obs::JsonValue* vb) {
    if (va == nullptr || vb == nullptr) {
      report("counter " + name + " present in only one report");
    } else if (va->as_number() != vb->as_number()) {
      report("counter " + name + ": " + std::to_string(va->as_number()) +
             " vs " + std::to_string(vb->as_number()));
    }
  });

  for_union("sums", [&](const std::string& name, const obs::JsonValue* va,
                        const obs::JsonValue* vb) {
    if (va == nullptr || vb == nullptr) {
      report("sum " + name + " present in only one report");
    } else if (!close_rel(va->as_number(), vb->as_number())) {
      report("sum " + name + ": " + std::to_string(va->as_number()) + " vs " +
             std::to_string(vb->as_number()));
    }
  });

  for_union("gauges", [&](const std::string& name, const obs::JsonValue* va,
                          const obs::JsonValue* vb) {
    if (skipped_gauge(name)) return;
    if (va == nullptr || vb == nullptr) {
      report("gauge " + name + " present in only one report");
    } else if (va->as_number() != vb->as_number()) {
      report("gauge " + name + ": " + std::to_string(va->as_number()) +
             " vs " + std::to_string(vb->as_number()));
    }
  });

  for_union("log_histograms", [&](const std::string& name,
                                  const obs::JsonValue* va,
                                  const obs::JsonValue* vb) {
    if (va == nullptr || vb == nullptr) {
      report("log_histogram " + name + " present in only one report");
      return;
    }
    if (va->at("count").as_number() != vb->at("count").as_number()) {
      report("log_histogram " + name + " count: " +
             std::to_string(va->at("count").as_number()) + " vs " +
             std::to_string(vb->at("count").as_number()));
      return;
    }
    // Latency distributions (all current log histograms are millisecond
    // timings) compare by count only.
    if (name.find("_ms") != std::string::npos) return;
    if (va->at("mean").as_number() != vb->at("mean").as_number()) {
      report("log_histogram " + name + " mean differs");
    }
  });

  return differences;
}

int diff_reports(const std::string& path_a, const std::string& path_b,
                 bool quiet) {
  const obs::JsonValue a = obs::json_parse(cu::read_text_file(path_a));
  const obs::JsonValue b = obs::json_parse(cu::read_text_file(path_b));
  const std::size_t differences =
      diff_metrics(metrics_of(a), metrics_of(b), quiet);
  if (differences == 0) {
    if (!quiet) std::printf("reports match\n");
    return 0;
  }
  std::fprintf(stderr, "cts_simd: %zu difference(s) between %s and %s\n",
               differences, path_a.c_str(), path_b.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cu::Flags flags(argc, argv);
    if (flags.get_bool("help", false)) {
      usage();
      return 0;
    }
    flags.warn_unknown(std::cerr, cu::cli::flag_names(cu::cli::kSimdFlags));
    const bool quiet = flags.get_bool("quiet", false);

    // Structured events are opt-in for the orchestrator: --log appends
    // cts.events.v1 JSONL (stdout stays the human-facing progress channel).
    const std::string log_path = flags.get_string("log", "");
    if (!log_path.empty()) obs::EventLog::global().open(log_path);
    obs::EventLog::global().set_min_level(
        obs::parse_log_level(flags.get_string("log-level", "info")));
    const std::vector<std::string> args = positionals(argc, argv);
    if (args.empty()) {
      usage();
      return 2;
    }
    const std::string& command = args.front();

    if (command == "run") {
      if (args.size() != 2) {
        usage();
        return 2;
      }
      const std::int64_t shards = flags.get_int("shards", 2);
      if (shards < 1) {
        std::fprintf(stderr, "cts_simd: --shards must be >= 1\n");
        return 2;
      }
      if (flags.has("workers")) {
        NetRunOptions opt;
        opt.bench_id = args[1];
        opt.shards = static_cast<std::size_t>(shards);
        opt.out_dir = flags.get_string("out-dir", "simd_out");
        opt.metrics_path = flags.get_string("metrics", "simd_metrics.json");
        opt.keep_shards = flags.get_bool("keep-shards", false);
        opt.quiet = quiet;
        opt.workers =
            net::parse_worker_list(flags.get_string("workers", ""));
        opt.job_timeout_s = flags.get_double("job-timeout", 300.0);
        if (opt.job_timeout_s <= 0) {
          std::fprintf(stderr, "cts_simd: --job-timeout must be > 0\n");
          return 2;
        }
        const std::int64_t retries = flags.get_int("retries", 3);
        if (retries < 1) {
          std::fprintf(stderr, "cts_simd: --retries must be >= 1\n");
          return 2;
        }
        opt.retries = static_cast<int>(retries);
        opt.dispatch_metrics_path =
            flags.get_string("dispatch-metrics", "");
        opt.trace_path = flags.get_string("trace", "");
        opt.profile = obs::profile_request_from_flags(flags);
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
        return run_networked(opt);
      }
      return run_workers(args[1], static_cast<std::size_t>(shards),
                         flags.get_string("out-dir", "simd_out"),
                         flags.get_string("metrics", "simd_metrics.json"),
                         flags.get_bool("keep-shards", false),
                         flags.get_double("timeout", 0.0), quiet);
    }
    if (command == "merge") {
      if (args.size() < 2) {
        usage();
        return 2;
      }
      return merge_and_report(
          std::vector<std::string>(args.begin() + 1, args.end()),
          flags.get_string("metrics", "simd_metrics.json"), quiet);
    }
    if (command == "diff") {
      if (args.size() != 3) {
        usage();
        return 2;
      }
      return diff_reports(args[1], args[2], quiet);
    }
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cts_simd: %s\n", e.what());
    return 2;
  }
}
