// Unit tests for the CLP-aware partial-buffer-sharing kernel
// (atm::evolve_priority_frame), each case checked against a closed form.

#include "cts/atm/priority_buffer.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cts/proc/ar1.hpp"

namespace ca = cts::atm;
namespace cp = cts::proc;

namespace {

/// Per-class tallies of a frame loop over the kernel.
struct Tally {
  double high_arrived = 0.0;
  double low_arrived = 0.0;
  double high_lost = 0.0;
  double low_lost = 0.0;

  double high_clr() const { return high_lost / high_arrived; }
  double low_clr() const { return low_lost / low_arrived; }
};

std::vector<std::unique_ptr<cp::FrameSource>> ar1_sources(int n, double phi,
                                                          std::uint64_t seed) {
  cp::Ar1Params p;
  p.phi = phi;
  p.mean = 500.0;
  p.variance = 5000.0;
  std::vector<std::unique_ptr<cp::FrameSource>> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(std::make_unique<cp::Ar1Source>(
        p, seed + static_cast<std::uint64_t>(i)));
  }
  return out;
}

double next_sum(std::vector<std::unique_ptr<cp::FrameSource>>& sources) {
  double sum = 0.0;
  for (auto& s : sources) sum += std::max(s->next_frame(), 0.0);
  return sum;
}

/// Drives the kernel with AR(1) aggregates of `n` high and `n` low sources,
/// checking per frame that each class loses at most what it offered, that
/// the queue stays in [0, B] and that fluid is conserved: whatever was
/// offered and not lost either left through the server (exactly c while
/// the queue ends non-empty, at most c otherwise) or is still queued.
Tally run_ar1_loop(int n, double phi, double c, double s, double b,
                   std::uint64_t frames) {
  auto high = ar1_sources(n, phi, 100);
  auto low = ar1_sources(n, phi, 900);
  Tally tally;
  double q = 0.0;
  for (std::uint64_t f = 0; f < frames; ++f) {
    const double ah = next_sum(high);
    const double al = next_sum(low);
    const ca::PriorityFrameOutcome out =
        ca::evolve_priority_frame(q, ah, al, c, s, b);
    EXPECT_GE(out.high_lost, 0.0);
    EXPECT_LE(out.high_lost, ah + 1e-9);
    EXPECT_GE(out.low_lost, 0.0);
    EXPECT_LE(out.low_lost, al + 1e-9);
    EXPECT_GE(out.q, 0.0);
    EXPECT_LE(out.q, b);
    const double served =
        q + (ah - out.high_lost) + (al - out.low_lost) - out.q;
    const double tol = 1e-9 * (q + ah + al + c);
    if (out.q > 0.0) {
      EXPECT_NEAR(served, c, tol);
    } else {
      EXPECT_GE(served, -tol);
      EXPECT_LE(served, c + tol);
    }
    q = out.q;
    tally.high_arrived += ah;
    tally.low_arrived += al;
    tally.high_lost += out.high_lost;
    tally.low_lost += out.low_lost;
  }
  return tally;
}

}  // namespace

TEST(PrioritySharing, UnderloadLosesNothing) {
  // ah + al = 400 < c = 500: from any queue below S the queue drains at
  // 100 cells/frame and nothing is lost.
  for (const double q0 : {0.0, 20.0, 40.0}) {
    const ca::PriorityFrameOutcome out =
        ca::evolve_priority_frame(q0, 200.0, 200.0, 500.0, 50.0, 100.0);
    EXPECT_DOUBLE_EQ(out.q, std::max(q0 - 100.0, 0.0));
    EXPECT_DOUBLE_EQ(out.high_lost, 0.0);
    EXPECT_DOUBLE_EQ(out.low_lost, 0.0);
  }
}

TEST(PrioritySharing, SteadyOverloadDropsLowFirst) {
  // ah = 400 <= c = 500 < ah + al = 700: the sliding mode at S pins the
  // queue at S, admits low fluid at rate c - ah and drops al - (c - ah).
  const double ah = 400.0, al = 300.0, c = 500.0, s = 100.0, b = 200.0;
  const ca::PriorityFrameOutcome pinned =
      ca::evolve_priority_frame(s, ah, al, c, s, b);
  EXPECT_DOUBLE_EQ(pinned.q, s);
  EXPECT_DOUBLE_EQ(pinned.high_lost, 0.0);
  EXPECT_DOUBLE_EQ(pinned.low_lost, al - (c - ah));
  // From empty, the queue climbs at ah + al - c = 200 and reaches S at
  // t = 1/2; the slide costs half a frame of the low excess.
  const ca::PriorityFrameOutcome filling =
      ca::evolve_priority_frame(0.0, ah, al, c, s, b);
  EXPECT_DOUBLE_EQ(filling.q, s);
  EXPECT_DOUBLE_EQ(filling.high_lost, 0.0);
  EXPECT_DOUBLE_EQ(filling.low_lost, 0.5 * (al - (c - ah)));
}

TEST(PrioritySharing, HighOverloadAloneLosesHigh) {
  // ah = 700 > c = 500: stuck full at B, the kernel drops all low fluid
  // and the high excess ah - c.
  const double ah = 700.0, al = 50.0, c = 500.0, s = 50.0, b = 100.0;
  const ca::PriorityFrameOutcome full =
      ca::evolve_priority_frame(b, ah, al, c, s, b);
  EXPECT_DOUBLE_EQ(full.q, b);
  EXPECT_DOUBLE_EQ(full.high_lost, ah - c);
  EXPECT_DOUBLE_EQ(full.low_lost, al);
  // From empty: everything enters until S (t = 50/250 = 0.2), only high
  // until B (slope ah - c = 200, t = 0.45), then stuck full.  Low loses
  // 50 x 0.8, high loses 200 x 0.55.
  const ca::PriorityFrameOutcome filling =
      ca::evolve_priority_frame(0.0, ah, al, c, s, b);
  EXPECT_DOUBLE_EQ(filling.q, b);
  EXPECT_NEAR(filling.low_lost, 40.0, 1e-9);
  EXPECT_NEAR(filling.high_lost, 110.0, 1e-9);
}

TEST(PrioritySharing, DrainsToEmpty) {
  // ah + al = 200 < c = 500.  From q0 = 300 in (S, B]: low fluid is dropped
  // while the queue drains to S at ah - c = -400 (t = 1/4, 25 low cells
  // lost), then everything drains at -300 and empties before the frame
  // ends (t = 11/12), where it stays.
  const ca::PriorityFrameOutcome out =
      ca::evolve_priority_frame(300.0, 100.0, 100.0, 500.0, 200.0, 400.0);
  EXPECT_DOUBLE_EQ(out.q, 0.0);
  EXPECT_DOUBLE_EQ(out.high_lost, 0.0);
  EXPECT_DOUBLE_EQ(out.low_lost, 25.0);
}

TEST(PrioritySharing, MatchesSingleClassRecursionWhenThresholdEqualsBuffer) {
  // With S = B and no low fluid the kernel is the FIFO fluid recursion
  // q' = min(max(q + a - c, 0), B), loss = max(q + a - c - B, 0).  On the
  // 600/400 alternating pattern with c = 500, B = 50 every burst frame
  // loses exactly 50 cells.
  const double c = 500.0, b = 50.0;
  double q = 0.0;
  double fifo_q = 0.0;
  double lost = 0.0;
  constexpr int kFrames = 1000;
  for (int f = 0; f < kFrames; ++f) {
    const double a = (f % 2 == 0) ? 600.0 : 400.0;
    const ca::PriorityFrameOutcome out =
        ca::evolve_priority_frame(q, a, 0.0, c, b, b);
    const double fifo_loss = std::max(fifo_q + a - c - b, 0.0);
    fifo_q = std::min(std::max(fifo_q + a - c, 0.0), b);
    EXPECT_DOUBLE_EQ(out.q, fifo_q);
    EXPECT_DOUBLE_EQ(out.high_lost, fifo_loss);
    EXPECT_DOUBLE_EQ(out.low_lost, 0.0);
    q = out.q;
    lost += out.high_lost;
  }
  EXPECT_DOUBLE_EQ(lost, 50.0 * (kFrames / 2));
}

TEST(PrioritySharing, ConservationPerClass) {
  const Tally t = run_ar1_loop(5, 0.8, 10 * 505.0, 400.0, 1000.0, 10000);
  EXPECT_LE(t.high_lost, t.high_arrived);
  EXPECT_LE(t.low_lost, t.low_arrived);
  // The low class suffers more under the shared threshold.
  EXPECT_GT(t.low_lost, 0.0);
  EXPECT_GE(t.low_clr(), t.high_clr());
}

TEST(PrioritySharing, ThresholdTradesLowLossForHighProtection) {
  // Lowering S protects the high class at the low class's expense.  The
  // capacity sits just above the high class's mean, so the high aggregate
  // alone overloads it in some frames and loses fluid at B; a lower S
  // keeps the queue further from B when those frames come.
  const Tally tight = run_ar1_loop(10, 0.9, 10 * 515.0, 500.0, 4000.0, 20000);
  const Tally loose =
      run_ar1_loop(10, 0.9, 10 * 515.0, 4000.0, 4000.0, 20000);
  EXPECT_GT(loose.high_clr(), 0.0);
  EXPECT_LT(tight.high_clr(), loose.high_clr());
  EXPECT_GT(tight.low_clr(), loose.low_clr());
}
