#include "faults/fault_schedule.hpp"

#include <algorithm>
#include <cstdio>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace pdac::faults {

FaultSchedule generate_fault_schedule(const FaultScheduleConfig& cfg) {
  PDAC_REQUIRE(cfg.lanes >= 1, "generate_fault_schedule: at least one lane");
  PDAC_REQUIRE(cfg.horizon_steps >= 1, "generate_fault_schedule: empty horizon");
  PDAC_REQUIRE(cfg.hard_fault_rate >= 0.0 && cfg.hard_fault_rate <= 1.0 &&
                   cfg.drift_fault_rate >= 0.0 && cfg.drift_fault_rate <= 1.0,
               "generate_fault_schedule: rates are per-lane probabilities in [0, 1]");
  PDAC_REQUIRE(cfg.bits >= 2 && cfg.bits <= 16, "generate_fault_schedule: bits in [2, 16]");
  const auto max_bit = static_cast<std::int64_t>(cfg.bits - 1);
  FaultSchedule sched;
  sched.cfg = cfg;
  Rng rng(cfg.seed);

  const auto step_at = [&] {
    return static_cast<std::uint64_t>(
        rng.integer(1, static_cast<std::int64_t>(cfg.horizon_steps)));
  };

  for (std::size_t lane = 0; lane < cfg.lanes; ++lane) {
    // Hard faults: the lane latches (stuck MRR) or loses a receive PD.
    if (rng.uniform(0.0, 1.0) < cfg.hard_fault_rate) {
      FaultEvent ev;
      ev.step = step_at();
      ev.lane = lane;
      if (rng.uniform(0.0, 1.0) < 0.6) {
        ev.kind = FaultKind::kStuckMrr;
        ev.magnitude = rng.uniform(-1.0, 1.0);  // latched output amplitude
      } else {
        ev.kind = FaultKind::kDeadPd;
        ev.bit = static_cast<int>(rng.integer(0, max_bit));
      }
      sched.events.push_back(ev);
    }
    // Drift-class faults: recoverable by re-trimming the TIA banks.
    if (rng.uniform(0.0, 1.0) < cfg.drift_fault_rate) {
      FaultEvent ev;
      ev.step = step_at();
      ev.lane = lane;
      const double which = rng.uniform(0.0, 1.0);
      if (which < 0.4) {
        ev.kind = FaultKind::kTiaGainStep;
        ev.bit = static_cast<int>(rng.integer(0, max_bit));
        ev.segment = static_cast<int>(rng.integer(0, 2));
        ev.magnitude = rng.uniform(0.7, 1.3);  // gain factor
      } else if (which < 0.8) {
        ev.kind = FaultKind::kBiasStep;
        ev.segment = static_cast<int>(rng.integer(0, 2));
        ev.magnitude = rng.uniform(-0.08, 0.08);  // radians
      } else {
        ev.kind = FaultKind::kDegradedPd;
        ev.magnitude = rng.uniform(0.75, 0.95);  // responsivity scale
      }
      sched.events.push_back(ev);
    }
  }
  std::sort(sched.events.begin(), sched.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.step != b.step ? a.step < b.step : a.lane < b.lane;
            });
  return sched;
}

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckMrr: return "stuck-mrr";
    case FaultKind::kDeadPd: return "dead-pd";
    case FaultKind::kDegradedPd: return "degraded-pd";
    case FaultKind::kTiaGainStep: return "tia-gain-step";
    case FaultKind::kBiasStep: return "bias-step";
  }
  return "?";
}

std::string to_string(const FaultEvent& ev) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "t=%llu lane=%zu %s mag=%.4f bit=%d seg=%d",
                static_cast<unsigned long long>(ev.step), ev.lane,
                to_string(ev.kind).c_str(), ev.magnitude, ev.bit, ev.segment);
  return buf;
}

}  // namespace pdac::faults
