// fault_schedule.hpp — deterministic, seeded runtime-fault event plans.
//
// The A6 Monte-Carlo (core/variation.hpp) answers "how bad is a device as
// fabricated"; this module answers "what breaks while the accelerator is
// serving".  A schedule is a list of discrete fault events on a pool of
// modulator lanes — stuck MRR modulators, dead or degraded receive
// photodetectors, TIA gain step-faults, bias jumps — plus the parameters
// of two continuous processes the injector integrates between events:
// a per-bank bias random walk (thermal drift) and laser power droop.
//
// Everything is a pure function of the seed: the same config replays the
// identical fault history, which is what makes fault experiments
// debuggable and the ablation reproducible (tests pin this down).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pdac::faults {

enum class FaultKind : int {
  kStuckMrr,     ///< modulator ring latches; output pinned, code ignored
  kDeadPd,       ///< one per-bit receive PD dies (bit contributes nothing)
  kDegradedPd,   ///< receive-PD responsivity derates on the whole lane
  kTiaGainStep,  ///< one TIA weight steps by a factor (drift-class)
  kBiasStep,     ///< a one-off bank bias jump (drift-class)
};

struct FaultEvent {
  std::uint64_t step{};   ///< injection time on the schedule clock
  FaultKind kind{FaultKind::kStuckMrr};
  std::size_t lane{};     ///< flat lane index in the bank
  double magnitude{};     ///< kind-specific: stuck amplitude, derate/gain factor, bias jump [rad]
  int bit{-1};            ///< kDeadPd/kTiaGainStep: affected bit position
  int segment{1};         ///< kTiaGainStep/kBiasStep: bank index (0/1/2)
};

struct FaultScheduleConfig {
  std::size_t lanes{16};
  int bits{8};  ///< lane bit width (bounds the bit index of PD/TIA faults)
  std::uint64_t horizon_steps{64};
  /// Probability a lane suffers a hard fault (stuck MRR or dead PD)
  /// somewhere in the horizon — the ablation's headline "fault rate".
  double hard_fault_rate{0.0};
  /// Probability of a drift-class event (gain step, bias jump, PD
  /// derate) per lane over the horizon.
  double drift_fault_rate{0.0};
  /// Continuous bias random walk: per-step σ added to every bank bias.
  double bias_walk_sigma_per_step{0.0};
  /// Laser droop: fractional optical power lost per step (accumulates
  /// multiplicatively across the horizon).
  double laser_droop_per_step{0.0};
  std::uint64_t seed{1};
};

struct FaultSchedule {
  FaultScheduleConfig cfg{};
  std::vector<FaultEvent> events;  ///< sorted by (step, lane)
};

/// Draw a schedule; identical (cfg) inputs yield identical schedules.
[[nodiscard]] FaultSchedule generate_fault_schedule(const FaultScheduleConfig& cfg);

[[nodiscard]] std::string to_string(FaultKind kind);
/// One-line debug rendering of an event.
[[nodiscard]] std::string to_string(const FaultEvent& ev);

}  // namespace pdac::faults
