#include "cts/obs/perf.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>

#include "cts/obs/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define CTS_HAVE_GETRUSAGE 1
#endif

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#define CTS_HAVE_PERF_EVENT 1
#endif

namespace cts::obs {

namespace {

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#ifdef CTS_HAVE_GETRUSAGE
double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
#endif

}  // namespace

// ---------------------------------------------------------------------------
// ResourceProbe

ResourceProbe::ResourceProbe() { restart(); }

void ResourceProbe::restart() {
  wall_start_ns_ = monotonic_ns();
#ifdef CTS_HAVE_GETRUSAGE
  rusage r;
  if (getrusage(RUSAGE_SELF, &r) == 0) {
    user_start_s_ = timeval_s(r.ru_utime);
    sys_start_s_ = timeval_s(r.ru_stime);
    vol_start_ = r.ru_nvcsw;
    invol_start_ = r.ru_nivcsw;
  }
#endif
}

ResourceUsage ResourceProbe::sample() const {
  ResourceUsage u;
  u.wall_s = static_cast<double>(monotonic_ns() - wall_start_ns_) * 1e-9;
#ifdef CTS_HAVE_GETRUSAGE
  rusage r;
  if (getrusage(RUSAGE_SELF, &r) == 0) {
    u.user_s = timeval_s(r.ru_utime) - user_start_s_;
    u.sys_s = timeval_s(r.ru_stime) - sys_start_s_;
    // ru_maxrss is a lifetime high-water mark (KiB on Linux, bytes on
    // macOS — normalised to KiB here), not restartable.
#if defined(__APPLE__)
    u.max_rss_kb = r.ru_maxrss / 1024;
#else
    u.max_rss_kb = r.ru_maxrss;
#endif
    u.ctx_voluntary = r.ru_nvcsw - vol_start_;
    u.ctx_involuntary = r.ru_nivcsw - invol_start_;
  }
#endif
  return u;
}

// ---------------------------------------------------------------------------
// HwCounters

double HwCounters::ipc() const noexcept {
  const std::uint64_t cycles = value("cycles");
  const std::uint64_t instructions = value("instructions");
  if (cycles == 0 || instructions == 0) return 0.0;
  return static_cast<double>(instructions) / static_cast<double>(cycles);
}

std::uint64_t HwCounters::value(const std::string& name) const noexcept {
  for (const auto& [n, v] : values) {
    if (n == name) return v;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// PerfCounterGroup

#ifdef CTS_HAVE_PERF_EVENT

namespace {

int open_counter(std::uint32_t type, std::uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = type;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = 1;  // count threads spawned after open (replication pool)
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
}

}  // namespace

PerfCounterGroup::PerfCounterGroup() {
  struct Wanted {
    const char* name;
    std::uint64_t config;
  };
  static constexpr Wanted kWanted[] = {
      {"cycles", PERF_COUNT_HW_CPU_CYCLES},
      {"instructions", PERF_COUNT_HW_INSTRUCTIONS},
      {"cache_references", PERF_COUNT_HW_CACHE_REFERENCES},
      {"cache_misses", PERF_COUNT_HW_CACHE_MISSES},
      {"branches", PERF_COUNT_HW_BRANCH_INSTRUCTIONS},
      {"branch_misses", PERF_COUNT_HW_BRANCH_MISSES},
  };
  int first_errno = 0;
  for (const Wanted& w : kWanted) {
    const int fd = open_counter(PERF_TYPE_HARDWARE, w.config);
    if (fd >= 0) {
      slots_.push_back({w.name, fd});
    } else if (first_errno == 0) {
      first_errno = errno;
    }
  }
  if (slots_.empty()) {
    reason_ = std::string("perf_event_open failed: ") +
              std::strerror(first_errno);
    if (first_errno == EACCES || first_errno == EPERM) {
      reason_ += " (check /proc/sys/kernel/perf_event_paranoid)";
    } else if (first_errno == ENOENT || first_errno == ENODEV) {
      reason_ += " (hardware PMU not available, e.g. inside a VM)";
    }
  }
}

PerfCounterGroup::~PerfCounterGroup() {
  for (const Slot& s : slots_) close(s.fd);
}

void PerfCounterGroup::start() noexcept {
  for (const Slot& s : slots_) {
    ioctl(s.fd, PERF_EVENT_IOC_RESET, 0);
    ioctl(s.fd, PERF_EVENT_IOC_ENABLE, 0);
  }
}

HwCounters PerfCounterGroup::stop() noexcept {
  HwCounters out;
  out.available = available();
  out.unavailable_reason = reason_;
  for (const Slot& s : slots_) {
    ioctl(s.fd, PERF_EVENT_IOC_DISABLE, 0);
    std::uint64_t v = 0;
    if (read(s.fd, &v, sizeof(v)) == static_cast<ssize_t>(sizeof(v))) {
      out.values.emplace_back(s.name, v);
    }
  }
  return out;
}

#else  // !CTS_HAVE_PERF_EVENT

PerfCounterGroup::PerfCounterGroup()
    : reason_("perf_event_open unavailable on this platform "
              "(hardware counters are Linux-only)") {}

PerfCounterGroup::~PerfCounterGroup() = default;

void PerfCounterGroup::start() noexcept {}

HwCounters PerfCounterGroup::stop() noexcept {
  HwCounters out;
  out.unavailable_reason = reason_;
  return out;
}

#endif  // CTS_HAVE_PERF_EVENT

// ---------------------------------------------------------------------------
// PerfReport

void PerfReport::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kSchema);

  w.key("info").begin_object();
  for (const auto& [k, v] : info) w.key(k).value(v);
  w.end_object();

  w.key("resources").begin_object();
  w.key("wall_s").value(resources.wall_s);
  w.key("user_s").value(resources.user_s);
  w.key("sys_s").value(resources.sys_s);
  w.key("max_rss_kb").value(resources.max_rss_kb);
  w.key("ctx_voluntary").value(resources.ctx_voluntary);
  w.key("ctx_involuntary").value(resources.ctx_involuntary);
  w.end_object();

  w.key("hw").begin_object();
  w.key("available").value(hw.available);
  if (hw.available) {
    w.key("backend").value("perf_event");
    w.key("counters").begin_object();
    for (const auto& [name, v] : hw.values) w.key(name).value(v);
    w.end_object();
    w.key("ipc").value(hw.ipc());
  } else {
    w.key("reason").value(hw.unavailable_reason);
  }
  w.end_object();

  w.key("spans").begin_array();
  for (const SpanAgg& s : spans) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("count").value(s.count);
    w.key("total_us").value(s.total_us);
    w.key("self_us").value(s.self_us);
    w.key("min_us").value(s.min_us);
    w.key("max_us").value(s.max_us);
    w.end_object();
  }
  w.end_array();

  w.key("phases").begin_array();
  for (const PhaseSelfTime& p : phase_self_times(spans)) {
    w.begin_object();
    w.key("phase").value(p.phase);
    w.key("self_us").value(p.self_us);
    w.key("spans").value(p.spans);
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

bool PerfReport::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  out.put('\n');
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace cts::obs
