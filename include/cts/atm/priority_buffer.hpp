// Space-priority buffer management (CLP-aware partial buffer sharing).
//
// ATM's CLP bit marks low-priority cells; the classic buffer-management
// policy is PARTIAL BUFFER SHARING: low-priority (CLP = 1) cells are
// admitted only while the queue is below a threshold S < B, high-priority
// cells up to the full buffer B.  This module provides the fluid frame-
// level version of that policy for two traffic classes, reporting per-class
// loss -- the mechanism that turns one physical buffer into two QOS
// classes.  The scenario executor's priority hops
// (cts/sim/scenario_run.hpp) run it frame by frame.

#pragma once

namespace cts::atm {

/// Exact within-frame outcome of the two-priority fluid policy.
struct PriorityFrameOutcome {
  double q = 0.0;          ///< end-of-frame queue
  double low_lost = 0.0;   ///< low-priority fluid dropped this frame
  double high_lost = 0.0;  ///< high-priority fluid dropped this frame
};

/// One frame of the two-priority fluid dynamics: starting from queue `q0`
/// with constant high/low arrival rates `ah`/`al` and service rate `c`
/// (cells/frame), low fluid blocked while q >= `s` and high fluid while
/// q >= `b`.  Piecewise-linear evolution with sliding modes at S and B
/// (low-priority fluid is clipped first, matching the cell-level policy
/// where CLP=1 arrivals are dropped at queue >= S).
PriorityFrameOutcome evolve_priority_frame(double q0, double ah, double al,
                                           double c, double s, double b);

}  // namespace cts::atm
