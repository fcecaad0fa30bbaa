// Span-time attribution: turns the flat Chrome-trace span list recorded by
// TraceRecorder into a per-span-name aggregate table with *self* time, i.e.
// each span's duration minus the time spent in spans nested inside it on
// the same thread.  Self time answers "which phase actually burned the
// wall-clock" — a replication span that spends 95% of its time inside
// fluid_mux.run contributes only 5% self time.  The table feeds the
// span section of a daemon's cts.stats.v1 reply (net::Server).
//
// A thread blocked on other threads or on a socket records the wait in a
// span named "wait.*" (the worker-pool join is "wait.join"), so the
// enclosing span's self time counts only its own work.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cts/obs/trace.hpp"

namespace cts::obs {

/// Aggregate over all spans sharing one name.
struct SpanAgg {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_us = 0;  ///< sum of span durations (inclusive)
  std::int64_t self_us = 0;   ///< total minus time in directly nested spans
  std::int64_t min_us = 0;    ///< shortest single span
  std::int64_t max_us = 0;    ///< longest single span
};

/// Aggregates completed spans into per-name totals with self time.
/// Nesting is inferred per thread from interval containment (RAII spans
/// nest properly by construction).  Result is sorted by self_us descending.
std::vector<SpanAgg> aggregate_spans(const std::vector<TraceEvent>& events);

}  // namespace cts::obs
