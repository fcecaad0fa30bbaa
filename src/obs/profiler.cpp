#include "cts/obs/profiler.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include <sys/time.h>

#include "cts/obs/event_log.hpp"
#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"

namespace cts::obs {

namespace {

// ---------------------------------------------------------------------------
// Per-thread span stacks.
//
// Frames are COPIED into fixed slots so neither sampler ever dereferences
// memory owned by a span that may be destructing.  `depth` counts logical
// nesting; only the first kMaxDepth frames are stored (deeper frames are
// tracked by the counter alone so pushes and pops stay balanced).

constexpr int kMaxDepth = 32;
constexpr int kMaxFrame = 48;  ///< span-name slot, incl. NUL (longer: truncated)

struct ThreadStack {
  std::mutex mu;               ///< cross-thread reads ("thread" backend)
  std::atomic<int> depth{0};   ///< same-thread reads (SIGPROF handler)
  char frames[kMaxDepth][kMaxFrame];

  ThreadStack();
  ~ThreadStack();
};

// Registry of live thread stacks for the wall-clock sampler.  Leaked
// (never destroyed) so thread exit after static destruction stays safe.
std::mutex& registry_mu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}
std::vector<ThreadStack*>& registry() {
  static std::vector<ThreadStack*>* reg = new std::vector<ThreadStack*>();
  return *reg;
}

// Constant-initialized pointer: safe to read from the SIGPROF handler
// (no lazy TLS wrapper call), null until this thread's first span push
// and again after the thread begins destruction.
thread_local ThreadStack* t_stack = nullptr;

ThreadStack::ThreadStack() {
  const std::lock_guard<std::mutex> lock(registry_mu());
  registry().push_back(this);
}

ThreadStack::~ThreadStack() {
  t_stack = nullptr;
  const std::lock_guard<std::mutex> lock(registry_mu());
  auto& reg = registry();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    if (reg[i] == this) {
      reg.erase(reg.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

ThreadStack& tls_stack() {
  thread_local ThreadStack stack;
  t_stack = &stack;
  return stack;
}

/// Joins frames[0..depth) with ';' into out (size cap), returns length.
std::size_t fold_key(const char frames[][kMaxFrame], int depth, char* out,
                     std::size_t out_size) noexcept {
  std::size_t n = 0;
  for (int i = 0; i < depth; ++i) {
    if (i > 0 && n + 1 < out_size) out[n++] = ';';
    for (const char* p = frames[i]; *p != '\0' && n + 1 < out_size; ++p) {
      out[n++] = *p;
    }
  }
  out[n] = '\0';
  return n;
}

// ---------------------------------------------------------------------------
// Lock-free fold table for the SIGPROF handler (async-signal-safe: fixed
// storage, CAS claims, no allocation).  Drained under Profiler::mu_.

constexpr std::size_t kTableSlots = 1024;
constexpr std::size_t kTableKey = kMaxDepth * kMaxFrame;

struct TableSlot {
  std::atomic<std::uint32_t> state{0};  ///< 0 empty, 1 claiming, 2 ready
  char key[kTableKey];
  std::atomic<std::uint64_t> count{0};
};

TableSlot g_table[kTableSlots];
std::atomic<std::uint64_t> g_itimer_samples{0};
std::atomic<std::uint64_t> g_itimer_dropped{0};
struct sigaction g_prev_sigprof;

std::uint64_t fnv1a(const char* s) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 1099511628211ull;
  }
  return h;
}

void fold_into_table(const char* key, std::size_t len) noexcept {
  const std::uint64_t h = fnv1a(key);
  for (std::size_t probe = 0; probe < kTableSlots; ++probe) {
    TableSlot& slot = g_table[(h + probe) % kTableSlots];
    std::uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state == 0) {
      std::uint32_t expected = 0;
      if (slot.state.compare_exchange_strong(expected, 1,
                                             std::memory_order_acq_rel)) {
        std::memcpy(slot.key, key, len + 1);  // fold_key NUL-terminates
        slot.state.store(2, std::memory_order_release);
        slot.count.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      state = slot.state.load(std::memory_order_acquire);
    }
    if (state == 2 && std::strcmp(slot.key, key) == 0) {
      slot.count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // state == 1 (another thread mid-claim) or a different key: probe on.
  }
  g_itimer_dropped.fetch_add(1, std::memory_order_relaxed);
}

void on_sigprof(int /*sig*/) {
  g_itimer_samples.fetch_add(1, std::memory_order_relaxed);
  const ThreadStack* ts = t_stack;
  if (ts == nullptr) return;  // thread has no active span history
  const int depth = ts->depth.load(std::memory_order_acquire);
  if (depth <= 0) return;
  const int stored = depth < kMaxDepth ? depth : kMaxDepth;
  char key[kTableKey];
  const std::size_t len = fold_key(ts->frames, stored, key, sizeof(key));
  fold_into_table(key, len);
}

}  // namespace

// ---------------------------------------------------------------------------
// Span hooks

void profiler_push_frame(const char* name) noexcept {
  try {
    ThreadStack& ts = tls_stack();
    const std::lock_guard<std::mutex> lock(ts.mu);
    const int depth = ts.depth.load(std::memory_order_relaxed);
    if (depth < kMaxDepth) {
      std::strncpy(ts.frames[depth], name, kMaxFrame - 1);
      ts.frames[depth][kMaxFrame - 1] = '\0';
    }
    // Frame bytes are written before the depth becomes visible, so the
    // SIGPROF handler (same thread) and the sampler thread (under mu)
    // never read a half-written slot.
    ts.depth.store(depth + 1, std::memory_order_release);
  } catch (...) {
    // Profiling must never take down a run.
  }
}

void profiler_pop_frame() noexcept {
  ThreadStack* ts = t_stack;
  if (ts == nullptr) return;
  try {
    const std::lock_guard<std::mutex> lock(ts->mu);
    const int depth = ts->depth.load(std::memory_order_relaxed);
    if (depth > 0) ts->depth.store(depth - 1, std::memory_order_release);
  } catch (...) {
  }
}

// ---------------------------------------------------------------------------
// Profiler

Profiler& Profiler::global() {
  static Profiler* instance = new Profiler();
  return *instance;
}

void Profiler::start(const Options& opts) {
  util::require(opts.hz >= 1 && opts.hz <= 10000,
                "profiler: hz must be in [1, 10000]");
  util::require(opts.backend == "thread" || opts.backend == "itimer",
                "profiler: backend must be thread|itimer, got '" +
                    opts.backend + "'");
  util::require(!armed(), "profiler: already running");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    opts_ = opts;
  }
  if (opts.backend == "itimer") {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &on_sigprof;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    util::require(sigaction(SIGPROF, &sa, &g_prev_sigprof) == 0,
                  "profiler: sigaction(SIGPROF) failed");
    itimerval timer;
    const long usec = 1000000L / opts.hz;
    timer.it_interval.tv_sec = usec / 1000000L;
    timer.it_interval.tv_usec = usec % 1000000L;
    timer.it_value = timer.it_interval;
    if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
      sigaction(SIGPROF, &g_prev_sigprof, nullptr);
      util::require(false, "profiler: setitimer(ITIMER_PROF) failed");
    }
    armed_.store(true, std::memory_order_relaxed);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = false;
  }
  armed_.store(true, std::memory_order_relaxed);
  sampler_ = std::thread([this] { sampler_loop(); });
}

void Profiler::sampler_loop() {
  std::chrono::microseconds interval;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    interval = std::chrono::microseconds(1000000 / opts_.hz);
  }
  std::unique_lock<std::mutex> stop_lock(stop_mu_);
  while (!stop_requested_) {
    if (stop_cv_.wait_for(stop_lock, interval,
                          [this] { return stop_requested_; })) {
      break;
    }
    // One tick: walk every registered thread's stack.  try_lock so a
    // thread mid-push never blocks the tick; a missed thread is counted,
    // not silently skipped.
    std::vector<std::string> keys;
    std::uint64_t missed = 0;
    {
      const std::lock_guard<std::mutex> reg_lock(registry_mu());
      for (ThreadStack* ts : registry()) {
        if (!ts->mu.try_lock()) {
          ++missed;
          continue;
        }
        const int depth = ts->depth.load(std::memory_order_relaxed);
        const int stored = depth < kMaxDepth ? depth : kMaxDepth;
        if (stored > 0) {
          char key[kTableKey];
          fold_key(ts->frames, stored, key, sizeof(key));
          ts->mu.unlock();
          keys.emplace_back(key);
        } else {
          ts->mu.unlock();
        }
      }
    }
    const std::lock_guard<std::mutex> lock(mu_);
    ++samples_;
    dropped_ += missed;
    for (const std::string& key : keys) ++folded_[key];
  }
}

void Profiler::drain_itimer_locked() {
  for (TableSlot& slot : g_table) {
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    const std::uint64_t n = slot.count.exchange(0, std::memory_order_relaxed);
    if (n > 0) folded_[slot.key] += n;
  }
  samples_ += g_itimer_samples.exchange(0, std::memory_order_relaxed);
  dropped_ += g_itimer_dropped.exchange(0, std::memory_order_relaxed);
}

void Profiler::stop() {
  if (!armed()) return;
  std::string backend;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    backend = opts_.backend;
  }
  if (backend == "itimer") {
    itimerval off;
    std::memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, nullptr);
    sigaction(SIGPROF, &g_prev_sigprof, nullptr);
    armed_.store(false, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu_);
    drain_itimer_locked();
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  armed_.store(false, std::memory_order_relaxed);
}

std::map<std::string, std::uint64_t> Profiler::folded() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (opts_.backend == "itimer") drain_itimer_locked();
  return folded_;
}

std::uint64_t Profiler::sample_count() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (opts_.backend == "itimer") drain_itimer_locked();
  return samples_;
}

std::uint64_t Profiler::dropped_count() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (opts_.backend == "itimer") drain_itimer_locked();
  return dropped_;
}

void Profiler::write_folded(std::ostream& os) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (opts_.backend == "itimer") drain_itimer_locked();
  for (const auto& [stack, count] : folded_) {
    os << stack << " " << count << "\n";
  }
}

bool Profiler::write_folded_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_folded(out);
  out.flush();
  return static_cast<bool>(out);
}

void Profiler::write_json(std::ostream& os) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (opts_.backend == "itimer") drain_itimer_locked();
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("cts.profile.v1");
  w.key("backend").value(opts_.backend);
  w.key("hz").value(static_cast<std::int64_t>(opts_.hz));
  w.key("samples").value(samples_);
  w.key("dropped").value(dropped_);
  w.key("stacks").begin_array();
  for (const auto& [stack, count] : folded_) {
    w.begin_object();
    w.key("stack").value(stack);
    w.key("count").value(count);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

bool Profiler::write(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  out.flush();
  return static_cast<bool>(out);
}

void Profiler::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (TableSlot& slot : g_table) {
    slot.count.store(0, std::memory_order_relaxed);
    slot.state.store(0, std::memory_order_relaxed);
    slot.key[0] = '\0';
  }
  g_itimer_samples.store(0, std::memory_order_relaxed);
  g_itimer_dropped.store(0, std::memory_order_relaxed);
  folded_.clear();
  samples_ = 0;
  dropped_ = 0;
}

ProfileRequest profile_request_from_flags(const util::Flags& flags) {
  ProfileRequest request;
  request.json_path = flags.get_string("profile", "");
  request.folded_path = flags.get_string("profile-folded", "");
  request.sampling.hz = static_cast<int>(flags.get_int("profile-hz", 97));
  request.sampling.backend = flags.get_string("profile-backend", "thread");
  return request;
}

std::uint64_t finish_profile(const ProfileRequest& request, const char* tool) {
  Profiler& prof = Profiler::global();
  prof.stop();
  if (!request.json_path.empty() && !prof.write(request.json_path)) {
    std::fprintf(stderr, "%s: cannot write profile %s\n", tool,
                 request.json_path.c_str());
  }
  if (!request.folded_path.empty() &&
      !prof.write_folded_file(request.folded_path)) {
    std::fprintf(stderr, "%s: cannot write folded profile %s\n", tool,
                 request.folded_path.c_str());
  }
  const std::uint64_t samples = prof.sample_count();
  log_info("profile.write",
           {{"samples", samples}, {"path", request.shown_path()}});
  return samples;
}

}  // namespace cts::obs
