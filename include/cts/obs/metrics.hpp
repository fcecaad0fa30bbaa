// Metrics registry: named counters, gauges, compensated sums and
// log-bucketed latency histograms for the simulation/bench pipeline.
//
// Design: the hot loops (per-frame queue recursion, per-frame generation)
// never touch the registry.  Workers accumulate into plain local variables
// or a MetricsShard (no locks, no atomics) and merge the shard into the
// process-wide registry once per run/replication — the same
// accumulate-then-reduce idiom as util::MomentAccumulator /
// util::CompensatedSum, which back the histogram summary statistics and
// the floating-point totals respectively.  Every timing is recorded once,
// in a LogHistogramCell, so one histogram kind answers both the mean and
// the tail percentiles.  Because counter merges are
// integer additions and sum merges are order-insensitive to well below
// measurement precision, registry contents are deterministic for any
// thread count.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

#include "cts/util/accumulator.hpp"

namespace cts::obs {

class JsonWriter;
struct JsonValue;

/// How a gauge combines multiple writes (and shard merges).
enum class GaugeMode {
  kSet,  ///< last write wins (configuration echo: thread count, seed)
  kMax,  ///< maximum over writes (peaks: queue depth, workload)
};

/// Gauge cell: a double with set/max combine semantics.
struct GaugeCell {
  double value = 0.0;
  GaugeMode mode = GaugeMode::kSet;
  bool written = false;

  void update(double v) noexcept {
    if (mode == GaugeMode::kMax && written) {
      if (v > value) value = v;
    } else {
      value = v;
    }
    written = true;
  }

  void merge(const GaugeCell& other) noexcept {
    if (!other.written) return;
    mode = other.mode;
    update(other.value);
  }
};

/// Log-bucketed latency histogram with percentile estimation (the
/// DDSketch bucket scheme): an observation v > 0 lands in bucket
/// ceil(log(v) / log(gamma)), so bucket i covers (gamma^(i-1), gamma^i]
/// and the bucket's representative value 2*gamma^i/(gamma+1) is within
/// `relative_accuracy` of every value in the bucket.  With the default
/// accuracy of 2%, percentile(q) is guaranteed within 2% relative error
/// of the exact sample quantile for any distribution, tail (p99/p999)
/// latency included.
///
/// Merging is lossless: bucket counts are integer additions (requires
/// equal gamma) and the Welford summary merges with the same parallel
/// update, so snapshot/merge across processes equals a single-process run
/// bit for bit.  Observations <= 0 are counted in a
/// dedicated zero bucket (they have no logarithm) and enter percentiles
/// as 0.
class LogHistogramCell {
 public:
  /// Default relative accuracy of the percentile estimates (2%).
  static constexpr double kDefaultRelativeAccuracy = 0.02;

  LogHistogramCell() : LogHistogramCell(kDefaultRelativeAccuracy) {}
  explicit LogHistogramCell(double relative_accuracy);

  void observe(double v) noexcept;

  /// Merges another log histogram; throws util::InvalidArgument when the
  /// relative accuracies (bucket bases) differ.
  void merge(const LogHistogramCell& other);

  /// Estimated q-quantile (q in [0, 1]) of everything observed, within
  /// relative_accuracy() of the exact sample quantile
  /// sorted[ceil(q * count) - 1].  Returns 0 when empty.
  double percentile(double q) const noexcept;

  double gamma() const noexcept { return gamma_; }
  double relative_accuracy() const noexcept {
    return (gamma_ - 1.0) / (gamma_ + 1.0);
  }
  std::uint64_t zero_count() const noexcept { return zero_count_; }
  const std::map<std::int32_t, std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }
  const util::MomentAccumulator& stats() const noexcept { return stats_; }

  /// Rebuilds a log histogram from serialized state; throws
  /// InvalidArgument on an invalid gamma.
  static LogHistogramCell from_state(
      double gamma, std::uint64_t zero_count,
      std::map<std::int32_t, std::uint64_t> buckets,
      util::MomentAccumulator stats);

 private:
  double gamma_ = 0.0;
  double inv_log_gamma_ = 0.0;
  std::uint64_t zero_count_ = 0;                   ///< observations <= 0
  std::map<std::int32_t, std::uint64_t> buckets_;  ///< index -> count
  util::MomentAccumulator stats_;
};

/// Lock-free (because thread-local) bundle of metrics, merged into a
/// MetricsRegistry in one locked operation.
class MetricsShard {
 public:
  /// Adds `delta` to counter `name`.
  void add(const std::string& name, std::uint64_t delta = 1);

  /// Adds `delta` to the Kahan-compensated sum `name` (floating totals
  /// whose partial sums span many orders of magnitude: cells, losses).
  void add_sum(const std::string& name, double delta);

  /// Writes gauge `name` with the given combine mode.
  void gauge(const std::string& name, double v, GaugeMode mode = GaugeMode::kSet);

  /// Records `v` into log-bucketed histogram `name` (created with the
  /// default 2% relative accuracy on first observation).
  void observe_log(const std::string& name, double v);

  /// Folds `other` into this shard.
  void merge(const MetricsShard& other);

  /// Restore entry points for snapshot import (see
  /// metrics_snapshot_from_json): install a deserialized cell verbatim,
  /// replacing any existing entry of the same name.
  void restore_sum(const std::string& name, util::CompensatedSum sum);
  void restore_gauge(const std::string& name, GaugeCell cell);
  void restore_log_histogram(const std::string& name, LogHistogramCell cell);

  bool empty() const noexcept;

  const std::map<std::string, std::uint64_t>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, util::CompensatedSum>& sums() const noexcept {
    return sums_;
  }
  const std::map<std::string, GaugeCell>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, LogHistogramCell>& log_histograms()
      const noexcept {
    return log_histograms_;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, util::CompensatedSum> sums_;
  std::map<std::string, GaugeCell> gauges_;
  std::map<std::string, LogHistogramCell> log_histograms_;
};

/// Thread-safe named-metric registry.  All mutating/reading entry points
/// take an internal mutex; the intended high-rate path is shard merging,
/// one lock per replication, not per-sample calls.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry.  Deliberately leaked so that objects flushing
  /// metrics from destructors (e.g. frame sources) can never outlive it.
  static MetricsRegistry& global();

  void add(const std::string& name, std::uint64_t delta = 1);
  void add_sum(const std::string& name, double delta);
  void gauge(const std::string& name, double v, GaugeMode mode = GaugeMode::kSet);
  void observe_log(const std::string& name, double v);

  /// Merges a worker shard under one lock.
  void merge(const MetricsShard& shard);

  /// Copies the full registry contents (for cross-process serialization;
  /// see write_metrics_snapshot / metrics_snapshot_from_json).
  MetricsShard snapshot() const;

  std::uint64_t counter(const std::string& name) const;  ///< 0 when absent
  double sum(const std::string& name) const;             ///< 0 when absent
  double gauge_value(const std::string& name, double fallback = 0.0) const;
  bool has_gauge(const std::string& name) const;

  /// Emits the full registry as one JSON object:
  ///   {"counters":{...},"sums":{...},"gauges":{...},"log_histograms":{...}}
  /// (the log_histograms section is omitted when empty, so reports from
  /// code paths that never record one are unchanged).
  void write_json(std::ostream& os) const;

  /// Clears all metrics (tests; between independent bench phases).
  void reset();

 private:
  mutable std::mutex mu_;
  MetricsShard data_;
};

/// Emits `shard` as one JSON object carrying the FULL merge state —
/// Kahan compensation terms, gauge combine modes, histogram moment terms —
/// unlike MetricsRegistry::write_json, which emits the human/report view:
///
///   {"counters":{name:N},
///    "sums":{name:{"value":V,"compensation":C}},
///    "gauges":{name:{"value":V,"mode":"set"|"max"}},
///    "log_histograms":{name:{"gamma":G,"zero":Z,
///                            "indexes":[..],"counts":[..],
///                            "count":N,"mean":M,"m2":S,"min":L,"max":H}}}
///
/// The log_histograms section is omitted when empty; the parser tolerates
/// its absence.
///
/// A snapshot written on one process and imported on another merges
/// exactly as if the two registries had lived in one process (doubles are
/// serialized at full round-trip precision).
void write_metrics_snapshot(JsonWriter& w, const MetricsShard& shard);

/// Parses a snapshot produced by write_metrics_snapshot back into a shard.
/// Throws util::InvalidArgument on schema violations.
MetricsShard metrics_snapshot_from_json(const JsonValue& v);

}  // namespace cts::obs
