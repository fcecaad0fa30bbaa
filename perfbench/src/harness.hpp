// Shared harness of the perfbench workloads: clocks, seeded input
// generation, in-memory spans, order statistics and the result record.
//
// The benchmark stands outside the library: every span below is recorded
// by the benchmark's own code around a call into a public cts function,
// and spans stay in memory until the run ends.  Self time is computed
// here from the recorded intervals (duration minus the part covered by
// child spans on the same thread), never from obs::aggregate_spans, so a
// thread blocked in join() is not counted as work: such waits are
// recorded as `wait` spans and excluded from every layer sum.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic seconds.
double now_s();

/// CPU seconds (user + sys) of this process, all threads.
double process_cpu_s();

/// Peak resident set of this process, MiB.
double process_max_rss_mb();

/// CPU pinning of the calling thread.  The vCPUs of a shared host need
/// not run at one speed (here one of four ran set-up ~45% slower), and an
/// idle scheduler keeps a single thread on whichever it started on; so
/// single-threaded timings rotate over every allowed CPU, and every run
/// sees the same mix.  `allowed_cpus` is the affinity at program start.
const std::vector<int>& allowed_cpus();
void pin_to_cpu(int cpu);
/// Restores the program-start affinity (also for a forked child).
void unpin();

/// SplitMix64: the benchmark's own input generator, so inputs depend only
/// on --seed and never on the library's RNG code.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform index in [0, n).
  std::size_t index(std::size_t n);
  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[index(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Quantile by linear interpolation between order statistics (q in [0,1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// FNV-1a over the bytes of doubles / integers / text: output digests.
class Digest {
 public:
  void add(double x);
  void add(std::uint64_t x);
  void add(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// In-memory span recorder.  Disabled recorders cost one branch per span.
class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< a string literal
    int thread = 0;
    double start = 0;
    double end = 0;
    int depth = 0;
  };

  static Tracer& global();
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Small dense id for the calling thread (0 = first thread seen).
  int thread_id();
  void record(Span span);
  std::vector<Span> spans() const;
  void clear();

  /// Self time per span name: duration minus the time covered by child
  /// spans (same thread, deeper, nested).  Names starting with "wait"
  /// are dropped: blocking is not work.
  std::map<std::string, double> self_times() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int next_thread_ = 0;
};

/// RAII span around one call; records only when the tracer is enabled.
class ScopedSpan {
 public:
  /// `name` is kept by pointer until the run ends: pass a literal.
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Seconds since the span opened (valid whether or not tracing is on).
  double elapsed() const { return now_s() - start_; }

 private:
  const char* name_;
  double start_;
  bool on_;
};

/// A named metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one fixed-work round of a workload did.
struct RoundResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double items = 0;             ///< the workload's throughput unit
  std::vector<double> op_ms;    ///< per-op latency
  double child_cpu_s = 0;       ///< CPU of child processes in this round
  double child_rss_mb = 0;      ///< peak RSS of child processes
  /// Seconds of the round outside its fixed work (attribution probes of a
  /// traced round, stopping a daemon); subtracted from the round's wall.
  double excluded_s = 0;
};

/// Outcome of one output check.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned threads = 1;     ///< worker threads for the threaded layers
  std::string work_dir;     ///< scratch directory inside the checkout
  std::string cacd_path;    ///< cts_cacd executable
};

/// One workload: set-up, fixed-work rounds, traced rounds, checks.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs (models, specs, daemon); timed as setup_s.  Called
  /// before every round; each call replaces the previous state.
  virtual void setup() = 0;
  /// One round of fixed work with tracing off.
  virtual RoundResult round() = 0;
  /// One round of the same work, decomposed at layer boundaries with
  /// spans (and any attribution probes, which are spans too).
  virtual RoundResult traced_round() = 0;
  /// Threads the traced round may keep busy at once.
  virtual unsigned traced_threads() const = 0;
  /// Output checks, run after the timed phases.
  virtual std::vector<Check> checks() = 0;
  /// Per-layer metrics of the traced rounds, normalised per round, given
  /// the span self times summed over `rounds` traced rounds.
  virtual std::map<std::string, Metric> layer_metrics(
      const std::map<std::string, double>& self, std::size_t rounds) = 0;
  /// Shuts down whatever setup started (child processes).
  virtual void teardown() {}
};

}  // namespace perfbench
