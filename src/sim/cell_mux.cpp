#include "cts/sim/cell_mux.hpp"

#include <algorithm>
#include <cmath>

#include "cts/obs/metrics.hpp"
#include "cts/obs/trace.hpp"
#include "cts/util/error.hpp"

namespace cts::sim {

namespace {

/// One cell arrival instant, in units of the frame interval [0, 1).
struct Arrival {
  double time = 0.0;
};

}  // namespace

CellRunResult CellMux::run(
    std::vector<std::unique_ptr<proc::FrameSource>>& sources,
    const CellRunConfig& config) {
  CTS_TRACE_SPAN("cell_mux.run");
  util::require(!sources.empty(), "CellMux: need at least one source");
  util::require(config.capacity_cells > 0, "CellMux: capacity must be > 0");

  CellRunResult result;
  result.frames = config.frames;

  // Queue in whole cells; service completion clock in frame units.
  std::uint64_t queue = 0;
  const double service_interval =
      1.0 / static_cast<double>(config.capacity_cells);
  // Time (within the rolling frame) of the next service completion.
  double next_service = service_interval;

  std::vector<Arrival> arrivals;
  const std::uint64_t total = config.warmup_frames + config.frames;
  for (std::uint64_t n = 0; n < total; ++n) {
    const bool measuring = n >= config.warmup_frames;
    arrivals.clear();
    for (auto& source : sources) {
      const double raw = source->next_frame();
      const auto cells = static_cast<std::uint64_t>(
          std::llround(std::max(raw, 0.0)));
      // Deterministic smoothing: cell j of a size-k frame arrives at
      // (j + 1/2)/k within the frame (half-offset avoids all sources
      // colliding at t = 0 exactly).
      for (std::uint64_t j = 0; j < cells; ++j) {
        arrivals.push_back(
            {(static_cast<double>(j) + 0.5) / static_cast<double>(cells)});
      }
    }
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival& a, const Arrival& b) { return a.time < b.time; });

    for (const Arrival& cell : arrivals) {
      // Drain all service completions up to this arrival instant.
      while (next_service <= cell.time && queue > 0) {
        --queue;
        next_service += service_interval;
      }
      if (next_service <= cell.time) {
        // Server idle: align its clock to the arrival.
        next_service = cell.time + service_interval;
      }
      if (measuring) ++result.arrived_cells;
      if (queue >= config.buffer_cells) {
        if (measuring) ++result.lost_cells;
      } else {
        if (measuring) {
          // Queue seen on arrival -> waiting delay via the service rate.
          result.mean_queue_on_arrival += static_cast<double>(queue);
          const double delay_frames =
              static_cast<double>(queue + 1) * service_interval;
          result.max_delay_frames =
              std::max(result.max_delay_frames, delay_frames);
        }
        ++queue;
        result.peak_queue_cells = std::max(result.peak_queue_cells,
                                           static_cast<std::uint64_t>(queue));
      }
    }
    // Drain the rest of the frame.
    while (next_service <= 1.0 && queue > 0) {
      --queue;
      next_service += service_interval;
    }
    if (queue == 0) {
      // Idle at frame end: next service departs one interval into the new
      // frame once work arrives; approximating the aligned server clock.
      next_service = service_interval;
    } else {
      next_service -= 1.0;
    }
  }
  if (result.arrived_cells > result.lost_cells) {
    result.mean_queue_on_arrival /=
        static_cast<double>(result.arrived_cells - result.lost_cells);
  }

  obs::MetricsShard shard;
  shard.add("cell_mux.runs");
  shard.add("cell_mux.frames", config.frames);
  shard.add("cell_mux.arrived_cells", result.arrived_cells);
  shard.add("cell_mux.lost_cells", result.lost_cells);
  shard.gauge("cell_mux.peak_queue_cells",
              static_cast<double>(result.peak_queue_cells),
              obs::GaugeMode::kMax);
  obs::MetricsRegistry::global().merge(shard);
  return result;
}

}  // namespace cts::sim
