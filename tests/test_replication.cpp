// Unit tests for the multithreaded replication harness.

#include "cts/sim/replication.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "cts/obs/span_stats.hpp"
#include "cts/obs/trace.hpp"
#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"

namespace cf = cts::fit;
namespace cm = cts::sim;
namespace cu = cts::util;

namespace {

cm::ReplicationConfig small_config() {
  cm::ReplicationConfig config;
  config.replications = 4;
  config.frames_per_replication = 4000;
  config.warmup_frames = 200;
  config.n_sources = 10;
  config.capacity_cells = 10 * 520.0;
  config.buffer_sizes_cells = {0.0, 500.0};
  config.bop_thresholds_cells = {200.0};
  return config;
}

}  // namespace

TEST(Replication, ResultsIndependentOfThreadCount) {
  const cf::ModelSpec model = cf::make_ar1(0.8);
  cm::ReplicationConfig config = small_config();
  config.threads = 1;
  const cm::ReplicationResult serial = cm::run_replicated(model, config);
  config.threads = 4;
  const cm::ReplicationResult parallel = cm::run_replicated(model, config);
  ASSERT_EQ(serial.clr.size(), parallel.clr.size());
  for (std::size_t i = 0; i < serial.clr.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.clr[i].pooled_clr, parallel.clr[i].pooled_clr);
    EXPECT_DOUBLE_EQ(serial.clr[i].clr.mean, parallel.clr[i].clr.mean);
  }
  EXPECT_DOUBLE_EQ(serial.total_arrived_cells, parallel.total_arrived_cells);
}

TEST(Replication, JoinWaitIsNotSelfTime) {
  // The pool join is recorded as a wait.* span, so the work spans' self
  // times cannot add up to more than every thread busy for the whole run.
  const cf::ModelSpec model = cf::make_ar1(0.8);
  cm::ReplicationConfig config = small_config();
  config.threads = 2;
  config.progress = false;
  cts::obs::TraceRecorder& recorder = cts::obs::TraceRecorder::global();
  recorder.reset();
  recorder.enable();
  const std::int64_t t0 = recorder.now_us();
  (void)cm::run_replicated(model, config);
  const std::int64_t wall_us = recorder.now_us() - t0;
  recorder.disable();
  const std::vector<cts::obs::SpanAgg> spans =
      cts::obs::aggregate_spans(recorder.events());
  recorder.reset();

  std::int64_t work_self_us = 0;
  bool saw_wait = false;
  for (const cts::obs::SpanAgg& span : spans) {
    if (span.name.rfind("wait.", 0) == 0) {
      saw_wait = true;
    } else {
      work_self_us += span.self_us;
    }
  }
  EXPECT_TRUE(saw_wait);
  EXPECT_LE(work_self_us, wall_us * static_cast<std::int64_t>(config.threads));
}

TEST(Replication, MasterSeedChangesResults) {
  const cf::ModelSpec model = cf::make_ar1(0.8);
  cm::ReplicationConfig config = small_config();
  const cm::ReplicationResult a = cm::run_replicated(model, config);
  config.master_seed = 999;
  const cm::ReplicationResult b = cm::run_replicated(model, config);
  EXPECT_NE(a.total_arrived_cells, b.total_arrived_cells);
}

TEST(Replication, TalliesAreConsistent) {
  const cf::ModelSpec model = cf::make_ar1(0.9);
  const cm::ReplicationConfig config = small_config();
  const cm::ReplicationResult result = cm::run_replicated(model, config);
  EXPECT_EQ(result.total_frames,
            config.replications * config.frames_per_replication);
  // Zero buffer loses at least as much as the 500-cell buffer.
  EXPECT_GE(result.clr[0].pooled_clr, result.clr[1].pooled_clr);
  // Pooled and replication-mean estimates agree (equal-sized reps).
  for (const auto& est : result.clr) {
    EXPECT_NEAR(est.pooled_clr, est.clr.mean,
                1e-9 + 0.01 * std::max(est.pooled_clr, est.clr.mean));
  }
  // Mean arrived cells per frame ~ N * mu.
  EXPECT_NEAR(result.total_arrived_cells /
                  static_cast<double>(result.total_frames),
              10 * 500.0, 25.0);
}

TEST(Replication, ConfidenceIntervalsArePopulated) {
  const cf::ModelSpec model = cf::make_ar1(0.9);
  const cm::ReplicationResult result =
      cm::run_replicated(model, small_config());
  EXPECT_EQ(result.clr[0].clr.samples, 4u);
  EXPECT_GT(result.clr[0].clr.half_width, 0.0);
  EXPECT_GT(result.bop[0].bop.mean, 0.0);
}

TEST(Replication, RejectsBadConfig) {
  const cf::ModelSpec model = cf::make_ar1(0.5);
  cm::ReplicationConfig config = small_config();
  config.replications = 0;
  EXPECT_THROW(cm::run_replicated(model, config), cu::InvalidArgument);
  config = small_config();
  config.n_sources = 0;
  EXPECT_THROW(cm::run_replicated(model, config), cu::InvalidArgument);
}

TEST(ReplicationScales, PresetsAndEnvOverrides) {
  EXPECT_EQ(cm::paper_scale().replications, 60u);
  EXPECT_EQ(cm::paper_scale().frames_per_replication, 500000u);
  EXPECT_LT(cm::default_scale().replications,
            cm::paper_scale().replications);

  ::setenv("REPRO_REPS", "3", 1);
  ::setenv("REPRO_FRAMES", "777", 1);
  const cm::ReplicationConfig config =
      cm::apply_env_overrides(cm::default_scale());
  EXPECT_EQ(config.replications, 3u);
  EXPECT_EQ(config.frames_per_replication, 777u);
  ::unsetenv("REPRO_REPS");
  ::unsetenv("REPRO_FRAMES");

  ::setenv("REPRO_FULL", "1", 1);
  const cm::ReplicationConfig full =
      cm::apply_env_overrides(cm::default_scale());
  EXPECT_EQ(full.replications, 60u);
  ::unsetenv("REPRO_FULL");
}
