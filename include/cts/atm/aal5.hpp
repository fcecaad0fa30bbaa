// AAL5 overhead accounting (ITU I.363.5).
//
// The concrete path from "a video frame of X bytes" to the ATM cells the
// multiplexer counts: an AAL5 CPCS-PDU is the payload plus padding and an
// 8-byte trailer (UU, CPI, 16-bit length, CRC-32), carried in 48-byte cell
// payloads.

#pragma once

#include <cstdint>

namespace cts::obs {
class MetricsShard;
}

namespace cts::atm {

/// Number of cells an AAL5 PDU with `payload_bytes` of user data needs
/// (payload + pad + 8-byte trailer, ceiling to 48-byte cells).
std::uint64_t aal5_cells_for_payload(std::uint64_t payload_bytes);

/// Frame-level AAL5 overhead accounting for the scenario pipeline
/// (cts/sim/scenario_run.hpp): one frame of X fluid cells is treated as
/// one CPCS-PDU of round(X) * 48 payload bytes, and add() returns the
/// on-the-wire cell count including padding and the 8-byte trailer
/// (aal5_cells_for_payload).
///
/// Obs-aware in the accumulate-then-reduce idiom: add() only updates
/// local tallies; flush() folds them into a MetricsShard as
/// atm.aal5.pdus / atm.aal5.payload_cells / atm.aal5.cells and resets.
class Aal5Framer {
 public:
  /// Consumes one frame's fluid cell count, returns the wire cell count.
  double add(double frame_cells);

  /// Folds and resets the tallies accumulated since the last flush.
  void flush(obs::MetricsShard& shard);

 private:
  std::uint64_t pdus_ = 0;
  std::uint64_t payload_cells_ = 0;
  std::uint64_t wire_cells_ = 0;
};

}  // namespace cts::atm
