#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double process_max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

cpu_set_t& start_affinity() {
  static cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    sched_getaffinity(0, sizeof s, &s);
    return s;
  }();
  return set;
}

}  // namespace

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &start_affinity())) out.push_back(c);
    }
    return out;
  }();
  return cpus;
}

void pin_to_cpu(int cpu) {
  allowed_cpus();  // capture the start affinity before narrowing it
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

void unpin() { sched_setaffinity(0, sizeof(cpu_set_t), &start_affinity()); }

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double InputRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t InputRng::index(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* c = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= c[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double x) { bytes(&x, sizeof x); }
void Digest::add(std::uint64_t x) { bytes(&x, sizeof x); }
void Digest::add(const std::string& s) {
  bytes(s.data(), s.size());
  add(static_cast<std::uint64_t>(s.size()));
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

int Tracer::thread_id() {
  thread_local int id = -1;
  if (id < 0) {
    const std::lock_guard<std::mutex> lock(mu_);
    id = next_thread_++;
  }
  return id;
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::map<std::string, double> Tracer::self_times() const {
  std::vector<Span> all = spans();
  // Per thread, in start order: a span's direct children are the spans one
  // level deeper that start inside it.  Spans close in LIFO order per
  // thread (RAII), so nesting is exact.
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start != b.start) return a.start < b.start;
    return a.depth < b.depth;
  });
  std::vector<double> child(all.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < all.size(); ++i) {
    while (!stack.empty() && (all[stack.back()].thread != all[i].thread ||
                              all[stack.back()].depth >= all[i].depth)) {
      stack.pop_back();
    }
    if (!stack.empty()) child[stack.back()] += all[i].end - all[i].start;
    stack.push_back(i);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (std::strncmp(all[i].name, "wait", 4) == 0) continue;
    self[all[i].name] += std::max(0.0, all[i].end - all[i].start - child[i]);
  }
  return self;
}

namespace {
thread_local int t_depth = 0;
}

ScopedSpan::ScopedSpan(const char* name)
    : name_(name), start_(now_s()), on_(Tracer::global().enabled()) {
  if (on_) ++t_depth;
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  --t_depth;
  Tracer& tracer = Tracer::global();
  Tracer::Span span;
  span.name = name_;
  span.thread = tracer.thread_id();
  span.start = start_;
  span.end = now_s();
  span.depth = t_depth;
  tracer.record(std::move(span));
}

}  // namespace perfbench
