#include "cts/atm/priority_buffer.hpp"

#include <algorithm>

namespace cts::atm {

// Exact within-frame fluid dynamics for the two-priority policy.
//
// Rates are constant over the frame (deterministic smoothing): high fluid
// at rate `ah`, low fluid at rate `al`, service at rate `c` (all in
// cells/frame over t in [0,1]).  Low fluid is blocked while q >= S, high
// fluid while q >= B.  Piecewise-linear evolution with sliding modes at S
// (low partially admitted) and B (high partially admitted); at most a few
// segments per frame.
PriorityFrameOutcome evolve_priority_frame(double q0, double ah, double al,
                                           double c, double s, double b) {
  PriorityFrameOutcome out;
  double q = std::clamp(q0, 0.0, b);
  double t = 0.0;
  const double r_low = ah + al - c;  // slope while q < s (everything in)
  const double r_high = ah - c;      // slope while s <= q <= b (low dropped)

  // With constant rates the trajectory has at most a few linear segments;
  // each loop iteration completes one segment or finishes the frame.  All
  // boundary decisions are explicit (no epsilon nudges), so every
  // iteration makes strict progress in t.
  for (int iter = 0; iter < 8 && t < 1.0; ++iter) {
    const double remaining = 1.0 - t;
    if (q < s) {
      // Region LOW: everything admitted.
      if (r_low > 0.0) {
        const double dt = std::min(remaining, (s - q) / r_low);
        q += r_low * dt;
        t += dt;
        continue;  // may reach the S boundary
      }
      if (r_low < 0.0) {
        const double dt = std::min(remaining, q / (-r_low));
        q += r_low * dt;
        t += dt;
        if (t < 1.0) {  // hit empty; stays empty under constant rates
          q = 0.0;
          t = 1.0;
        }
        continue;
      }
      t = 1.0;  // parked below S; nothing lost
      break;
    }
    if (q <= s) {  // exactly at the S boundary
      if (r_high > 0.0) {
        // Pushes up into the HIGH region: handled below as q in (s, b].
      } else if (r_low > 0.0) {
        // Sliding mode at S: queue pinned; low admitted at rate (c - ah)
        // (which is >= 0 here because r_high <= 0), remainder lost.
        out.low_lost += (al - (c - ah)) * remaining;
        t = 1.0;
        q = s;
        break;
      } else {
        // Drains into the LOW region: one LOW segment from q = s.
        if (r_low < 0.0) {
          const double dt = std::min(remaining, q / (-r_low));
          q += r_low * dt;
          t += dt;
          if (t < 1.0) {
            q = 0.0;
            t = 1.0;
          }
        } else {
          t = 1.0;  // r_low == 0: parked at S, nothing lost
        }
        continue;
      }
    }
    // Region HIGH: s <= q <= b, low fluid dropped at rate al.
    if (q >= b && r_high >= 0.0) {
      // Stuck full: excess high lost too.
      out.high_lost += r_high * remaining;
      out.low_lost += al * remaining;
      t = 1.0;
      q = b;
      break;
    }
    if (r_high > 0.0) {
      const double dt = std::min(remaining, (b - q) / r_high);
      out.low_lost += al * dt;
      q += r_high * dt;
      t += dt;
      continue;  // may reach B; the stuck branch finishes the frame
    }
    if (r_high < 0.0) {
      const double dt = std::min(remaining, (q - s) / (-r_high));
      out.low_lost += al * dt;
      q += r_high * dt;
      t += dt;
      continue;  // may reach S; boundary logic decides next
    }
    // r_high == 0: parked in the HIGH region; low lost for the rest.
    out.low_lost += al * remaining;
    t = 1.0;
    break;
  }
  out.q = std::clamp(q, 0.0, b);
  return out;
}

}  // namespace cts::atm
