// The one monotonic clock the deadlines, timeouts and wall-time fields
// share: seconds since an arbitrary fixed point, never stepped backwards by
// NTP or a manual date change.

#pragma once

#include <chrono>

namespace cts::util {

/// Monotonic seconds (steady_clock; CLOCK_MONOTONIC on Linux).
inline double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace cts::util
