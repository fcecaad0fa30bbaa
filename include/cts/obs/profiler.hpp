// Always-on span-stack sampling profiler.
//
// ScopedSpan (cts/obs/trace.hpp) pushes its name onto a per-thread stack
// while the profiler is armed; the sampler snapshots those stacks at a
// configurable rate and accumulates folded-stack counts
// ("replication.run;fluid_mux.run" -> samples).  Two backends:
//
//   "thread"  (default) — a dedicated sampler thread walks every
//             registered thread's stack on a wall-clock tick.  Captures
//             blocked/idle-in-span time, works everywhere, TSan-clean
//             (per-thread mutex, try_lock from the sampler).
//   "itimer"  — setitimer(ITIMER_PROF) + SIGPROF: the kernel interrupts
//             whichever thread is on CPU, so counts are proportional to
//             CPU time.  The handler folds the interrupted thread's own
//             stack into a fixed lock-free table (no locks, no
//             allocation: async-signal-safe).
//
// Costs when disarmed: one relaxed atomic load per span (same as the
// trace recorder).  When armed: one uncontended mutex lock + a bounded
// string copy per span entry/exit — spans are per-run/per-replication,
// never per-frame, so this is noise.
//
// Exports: collapsed-stack text ("a;b;c 42" per line, flamegraph.pl /
// speedscope ready) and a `cts.profile.v1` JSON document.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

namespace cts::util {
class Flags;
}

namespace cts::obs {

/// Span-stack maintenance hooks, called by ScopedSpan.  `name` is copied
/// into a fixed per-thread frame slot (truncated to the slot size), so the
/// caller's buffer need not outlive the span.  pop is safe to call after
/// the profiler disarms mid-span.
void profiler_push_frame(const char* name) noexcept;
void profiler_pop_frame() noexcept;

/// Process-wide sampling profiler.
class Profiler {
 public:
  struct Options {
    /// Samples per second, in [1, 10000].  Default is a prime so the tick
    /// cannot phase-lock with periodic work.
    int hz = 97;
    /// "thread" (wall-clock sampler thread) or "itimer" (SIGPROF, CPU).
    std::string backend = "thread";
  };

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Process-wide profiler.  Deliberately leaked (see MetricsRegistry).
  static Profiler& global();

  /// Arms the profiler and starts the sampling backend.  Throws
  /// util::InvalidArgument on bad options or when already running.
  void start(const Options& opts);

  /// Stops sampling and drains pending per-thread buffers.  Idempotent.
  void stop();

  /// One relaxed load; read by ScopedSpan on every construction.
  bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Folded stacks ("outer;inner" -> sample count), drained up to now.
  std::map<std::string, std::uint64_t> folded();

  std::uint64_t sample_count();   ///< scheduler ticks / SIGPROF deliveries
  std::uint64_t dropped_count();  ///< samples lost (contention/table full)

  /// Collapsed-stack text, one "stack count" line per folded stack.
  void write_folded(std::ostream& os);
  bool write_folded_file(const std::string& path);

  /// cts.profile.v1 JSON: {"schema","backend","hz","samples","dropped",
  /// "stacks":[{"stack","count"},...]}.
  void write_json(std::ostream& os);
  bool write(const std::string& path);

  /// Drops accumulated samples (tests; between phases).  Keeps running.
  void reset();

 private:
  void sampler_loop();
  void drain_itimer_locked();

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;  ///< folded_/samples_/dropped_/opts_
  Options opts_;
  std::map<std::string, std::uint64_t> folded_;
  std::uint64_t samples_ = 0;
  std::uint64_t dropped_ = 0;

  std::thread sampler_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
};

/// A tool's --profile / --profile-folded / --profile-hz / --profile-backend
/// settings.
struct ProfileRequest {
  std::string json_path;    ///< cts.profile.v1 JSON ("" = none)
  std::string folded_path;  ///< collapsed-stack text ("" = none)
  Profiler::Options sampling;

  bool wanted() const { return !json_path.empty() || !folded_path.empty(); }
  /// The path messages name: the JSON one, else the folded one.
  const std::string& shown_path() const {
    return json_path.empty() ? folded_path : json_path;
  }
};

ProfileRequest profile_request_from_flags(const util::Flags& flags);

/// Stops the global profiler, writes the requested files and logs a
/// `profile.write` event.  A failed write goes to stderr as "<tool>: cannot
/// write [folded ]profile PATH".  Returns the sample count.
std::uint64_t finish_profile(const ProfileRequest& request, const char* tool);

}  // namespace cts::obs
