// ATM cell geometry (UNI format): a 53-byte cell is a 5-byte header plus a
// 48-byte payload.  These sizes are the units behind the abstract "cells"
// counted everywhere else in the library.

#pragma once

#include <cstddef>

namespace cts::atm {

inline constexpr std::size_t kCellBytes = 53;
inline constexpr std::size_t kPayloadBytes = 48;

}  // namespace cts::atm
