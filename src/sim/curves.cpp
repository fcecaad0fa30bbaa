#include "cts/sim/curves.hpp"

#include <algorithm>
#include <cmath>

#include "cts/core/large_n.hpp"
#include "cts/core/rate_function.hpp"
#include "cts/obs/trace.hpp"
#include "cts/util/error.hpp"

namespace cts::sim {

namespace {

/// `span_name` attributes the whole buffer grid (one span per curve, not
/// per point) to a named span in --trace output, so an analytic bench's
/// timeline shows where the rate-function work went instead of lumping
/// everything under the "bench.main" root span.
AnalyticCurve asymptotic_curve(const fit::ModelSpec& model,
                               const MuxGeometry& geometry,
                               const std::vector<double>& buffer_ms,
                               bool bahadur_rao, const char* span_name) {
  obs::ScopedSpan span(span_name);
  core::RateFunction rate(model.acf, model.mean, model.variance,
                          geometry.bandwidth_per_source);
  AnalyticCurve curve;
  curve.model = model.name;
  curve.buffer_ms = buffer_ms;
  curve.log10_bop.reserve(buffer_ms.size());
  curve.critical_m.reserve(buffer_ms.size());
  std::vector<double> buffers(buffer_ms.size());
  for (std::size_t i = 0; i < buffer_ms.size(); ++i) {
    buffers[i] = geometry.buffer_ms_to_cells(buffer_ms[i]) /
                 static_cast<double>(geometry.n_sources);
  }
  // The largest buffer has the longest horizon: evaluating it first sizes
  // the V(m) table and the envelope once.  Envelope answers do not depend
  // on query order, so the curve is unchanged.
  if (!buffers.empty()) {
    (void)rate.evaluate(*std::max_element(buffers.begin(), buffers.end()));
  }
  for (const double b : buffers) {
    const core::BopPoint point =
        bahadur_rao ? core::br_log10_bop(rate, b, geometry.n_sources)
                    : core::large_n_log10_bop(rate, b, geometry.n_sources);
    curve.log10_bop.push_back(point.log10_bop);
    curve.critical_m.push_back(point.critical_m);
  }
  return curve;
}

}  // namespace

AnalyticCurve br_curve(const fit::ModelSpec& model, const MuxGeometry& geometry,
                       const std::vector<double>& buffer_ms) {
  return asymptotic_curve(model, geometry, buffer_ms, true, "curve.br");
}

AnalyticCurve large_n_curve(const fit::ModelSpec& model,
                            const MuxGeometry& geometry,
                            const std::vector<double>& buffer_ms) {
  return asymptotic_curve(model, geometry, buffer_ms, false, "curve.large_n");
}

AnalyticCurve cts_curve(const fit::ModelSpec& model,
                        const MuxGeometry& geometry,
                        const std::vector<double>& buffer_ms) {
  // The CTS is a by-product of the B-R evaluation; reuse it.
  return asymptotic_curve(model, geometry, buffer_ms, true, "curve.cts");
}

ReplicationConfig replication_config_for_grid(
    const fit::ModelSpec& model, const MuxGeometry& geometry,
    const std::vector<double>& buffer_ms, const ReplicationConfig& scale) {
  ReplicationConfig config = scale;
  config.progress_label = model.name;
  config.n_sources = geometry.n_sources;
  config.capacity_cells = geometry.total_capacity();
  config.buffer_sizes_cells.clear();
  for (const double ms : buffer_ms) {
    config.buffer_sizes_cells.push_back(geometry.buffer_ms_to_cells(ms));
  }
  return config;
}

SimulatedCurve simulated_clr_curve(const fit::ModelSpec& model,
                                   const MuxGeometry& geometry,
                                   const std::vector<double>& buffer_ms,
                                   const ReplicationConfig& scale) {
  const ReplicationConfig config =
      replication_config_for_grid(model, geometry, buffer_ms, scale);
  const ReplicationResult result = run_replicated(model, config);

  SimulatedCurve curve;
  curve.model = model.name;
  curve.buffer_ms = buffer_ms;
  curve.total_frames = result.total_frames;
  curve.replications = config.replications;
  for (const ClrEstimate& est : result.clr) {
    curve.clr.push_back(est.pooled_clr);
    curve.ci_low.push_back(std::max(est.clr.low(), 0.0));
    curve.ci_high.push_back(est.clr.high());
  }
  return curve;
}

std::vector<double> buffer_grid_ms(double lo_ms, double hi_ms,
                                   std::size_t points) {
  util::require(lo_ms > 0.0 && hi_ms > lo_ms && points >= 2,
                "buffer_grid_ms: need 0 < lo < hi and >= 2 points");
  std::vector<double> grid(points);
  const double ratio = std::pow(hi_ms / lo_ms,
                                1.0 / static_cast<double>(points - 1));
  double x = lo_ms;
  for (std::size_t i = 0; i < points; ++i) {
    // pow() rounding can push the running product past hi_ms before the
    // last point (large `points`, ratio rounded up); clamp so pinning the
    // endpoint below cannot make the grid non-monotone.
    grid[i] = std::min(x, hi_ms);
    x *= ratio;
  }
  grid.back() = hi_ms;
  return grid;
}

std::vector<double> linear_grid_ms(double lo_ms, double hi_ms,
                                   std::size_t points) {
  util::require(hi_ms > lo_ms && points >= 2,
                "linear_grid_ms: need lo < hi and >= 2 points");
  std::vector<double> grid(points);
  const double step = (hi_ms - lo_ms) / static_cast<double>(points - 1);
  for (std::size_t i = 0; i < points; ++i) {
    grid[i] = lo_ms + step * static_cast<double>(i);
  }
  return grid;
}

}  // namespace cts::sim
