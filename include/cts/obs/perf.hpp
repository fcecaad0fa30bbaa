// Performance telemetry: per-run resource usage and (on Linux, when the
// kernel permits) hardware performance counters.
//
// ResourceProbe snapshots getrusage(RUSAGE_SELF) plus the monotonic clock
// at construction and reports deltas on sample(), so a bench can attribute
// user/system CPU time, peak RSS and context switches to exactly the
// measured region.
//
// PerfCounterGroup opens perf_event_open counters (cycles, instructions,
// cache and branch events) on the calling process with inherit=1 so worker
// threads spawned later are counted too.  When that syscall is unavailable
// (non-Linux build, seccomp filter, missing PMU, perf_event_paranoid) the
// group reports hardware counters as unavailable, with the reason, instead
// of substituting a pseudo-counter: wall time is already in
// ResourceUsage.
//
// PerfReport bundles one run's resources + counters + span self-time table
// (see span_stats.hpp) into the cts.perf.v1 JSON document written by the
// bench harness for --perf=<path> and aggregated by tools/cts_benchd.

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cts/obs/span_stats.hpp"

namespace cts::obs {

/// Deltas of process resource usage over a measured region.
struct ResourceUsage {
  double wall_s = 0.0;   ///< monotonic wall time
  double user_s = 0.0;   ///< user CPU time (all threads)
  double sys_s = 0.0;    ///< system CPU time (all threads)
  std::int64_t max_rss_kb = 0;  ///< peak RSS of the process (absolute, KiB)
  std::int64_t ctx_voluntary = 0;    ///< voluntary context switches
  std::int64_t ctx_involuntary = 0;  ///< involuntary context switches
};

/// Captures getrusage + monotonic clock at construction; sample() returns
/// the delta since then (max RSS is the absolute process peak: the kernel
/// reports a high-water mark, not a resettable counter).
class ResourceProbe {
 public:
  ResourceProbe();

  /// Re-arms the probe at the current instant.
  void restart();

  ResourceUsage sample() const;

 private:
  std::int64_t wall_start_ns_ = 0;
  double user_start_s_ = 0.0;
  double sys_start_s_ = 0.0;
  std::int64_t vol_start_ = 0;
  std::int64_t invol_start_ = 0;
};

/// One read of the hardware counters.  `values` holds only the counters
/// that actually opened, in a fixed order (cycles, instructions,
/// cache_references, cache_misses, branches, branch_misses).
struct HwCounters {
  bool available = false;
  std::string unavailable_reason;  ///< set when !available
  std::vector<std::pair<std::string, std::uint64_t>> values;

  /// instructions / cycles; 0 when either counter is absent or zero.
  double ipc() const noexcept;
  /// Value of counter `name`; 0 when absent.
  std::uint64_t value(const std::string& name) const noexcept;
};

/// The perf_event_open counter group the bench harness instruments
/// through.  Construction opens the counters disabled; start() resets and
/// enables them, stop() disables and reads.  When no counter opens,
/// available() is false and stop() returns {available:false, reason}.
/// Never throws.
class PerfCounterGroup {
 public:
  PerfCounterGroup();
  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  bool available() const noexcept { return !slots_.empty(); }
  /// Why no counter opened; "" while available().
  const std::string& unavailable_reason() const noexcept { return reason_; }

  void start() noexcept;
  HwCounters stop() noexcept;

 private:
  struct Slot {
    const char* name;
    int fd;
  };
  std::vector<Slot> slots_;
  std::string reason_;
};

/// One run's perf telemetry, serialised as the cts.perf.v1 JSON schema:
///
///   {"schema":"cts.perf.v1","info":{...},
///    "resources":{"wall_s":...,"user_s":...,"sys_s":...,"max_rss_kb":...,
///                 "ctx_voluntary":...,"ctx_involuntary":...},
///    "hw":{"available":true,"backend":"perf_event",
///          "counters":{...},"ipc":...}
///        | {"available":false,"reason":"..."},
///    "spans":[{"name":...,"count":...,"total_us":...,"self_us":...,
///              "min_us":...,"max_us":...},...],
///    "phases":[{"phase":...,"self_us":...,"spans":...},...]}
struct PerfReport {
  static constexpr const char* kSchema = "cts.perf.v1";

  std::vector<std::pair<std::string, std::string>> info;  ///< config echo
  ResourceUsage resources;
  HwCounters hw;
  std::vector<SpanAgg> spans;

  void write_json(std::ostream& os) const;

  /// Writes the report to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;
};

}  // namespace cts::obs
