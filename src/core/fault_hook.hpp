// fault_hook.hpp — non-invasive runtime-fault overlay for P-DAC lane
// models (the device side of the src/faults subsystem).
//
// The A6 Monte-Carlo (variation.hpp) covers *static fabrication*
// variation; at runtime a lane can additionally break: a receive
// photodetector dies or degrades, the MRR modulator sticks at one
// transmission point, the shared laser droops.  Rather than forking the
// encode path per failure mode, every lane model consults one overlay
// struct that defaults to the identity — a healthy lane computes
// bit-identically to a hook-free lane (a property test pins this down).
//
// The hook deliberately models what *cannot* be repaired by gain
// trimming: dead PD bits produce no photocurrent for any TIA gain, and a
// stuck MRR ignores the drive entirely.  Drift-class faults (bias walk,
// TIA gain steps) are instead written into the bank weights through
// apply_correction(), exactly where a re-trim can calibrate them out.
#pragma once

#include <cstdint>
#include <optional>

namespace pdac::core {

/// Runtime fault state of one P-DAC modulator lane.
struct PdacFaultHook {
  /// Receive-PD bit positions producing no photocurrent (dead per-bit
  /// PDs): the corresponding TIA inputs see nothing whatever the code.
  std::uint32_t dead_pd_bits{0};
  /// Uniform responsivity derating of the per-bit receive PDs (1 = nominal).
  double pd_responsivity_scale{1.0};
  /// Stuck MRR modulator: the output field amplitude is pinned to this
  /// value regardless of the code driven.
  std::optional<double> stuck_output{};
  /// Laser power droop reaching this lane: scales the carrier amplitude.
  double carrier_scale{1.0};
};

}  // namespace pdac::core
