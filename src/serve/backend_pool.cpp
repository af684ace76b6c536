#include "serve/backend_pool.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace pdac::serve {

namespace {

// Guard-aware placement score weights (health_score()): penalty per lane
// implication, per degraded re-run taken, per best-effort (given-up)
// product and per product with a caught mismatch.
constexpr double kLaneMismatchWeight = 0.30;
constexpr double kFenceWeight = 1.0;
constexpr double kUnrecoveredWeight = 2.0;
constexpr double kDetectionWeight = 0.10;

// Canary product shape, array_rows × kCanaryK by kCanaryK × array_cols,
// drawn once from kCanarySeed (same operands for every probe, so probe
// verdicts are comparable across the run).
constexpr std::size_t kCanaryK = 16;
constexpr std::uint64_t kCanarySeed = 0x5eedcafe;

}  // namespace

BackendPool::BackendPool(const BackendPoolConfig& cfg) : cfg_(cfg) {
  PDAC_REQUIRE(cfg_.backends > 0, "BackendPool: need at least one backend");
  clamped_escalation_ = cfg_.guarded.escalation;
  clamped_escalation_.max_retrims = 0;
  slots_.reserve(cfg_.backends);
  for (std::size_t i = 0; i < cfg_.backends; ++i) {
    Slot slot;
    slot.bank = std::make_unique<faults::LaneBank>(cfg_.bank);
    // Production trim before the guard snapshots golden state, exactly
    // like a part leaving the fab (lane_bank.hpp); identical seeds and
    // identical trims keep the slots bit-identical.
    faults::production_trim(*slot.bank);
    slot.backend = std::make_unique<faults::GuardedBackend>(*slot.bank, cfg_.guarded);
    if (cfg_.retrim_budget == 0) {
      slot.backend->set_escalation(clamped_escalation_);
      slot.clamped = true;
    }
    slots_.push_back(std::move(slot));
  }
  if (cfg_.quarantine.enabled) {
    PDAC_REQUIRE(cfg_.quarantine.readmit_clean_probes > 0,
                 "BackendPool: readmission count must be positive");
    PDAC_REQUIRE(cfg_.quarantine.probe_backoff > 0,
                 "BackendPool: probe backoff must be positive (virtual time must advance)");
    // Fixed operands for every canary probe: comparable verdicts, and a
    // probe is deliberately cheap (one tile row/column worth of product).
    Rng rng(kCanarySeed);
    canary_a_ = Matrix::random_gaussian(cfg_.guarded.array_rows, kCanaryK, rng);
    canary_b_ = Matrix::random_gaussian(kCanaryK, cfg_.guarded.array_cols, rng);
  }
}

void BackendPool::attach_storm(std::size_t i, const faults::FaultSchedule& schedule,
                               std::uint64_t steps_per_tile) {
  Slot& slot = slots_.at(i);
  slot.injector = std::make_unique<faults::FaultInjector>(*slot.bank, schedule);
  slot.backend->attach_storm(slot.injector.get(), steps_per_tile);
}

double BackendPool::health_score(std::size_t i) const {
  const Slot& slot = slots_.at(i);
  const std::size_t usable = slot.bank->usable_channels();
  if (usable == 0) return 0.0;
  const double capacity =
      static_cast<double>(usable) / static_cast<double>(slot.bank->wavelengths());
  const faults::HealthSnapshot snap = slot.backend->monitor().snapshot();
  const double penalty = kLaneMismatchWeight * static_cast<double>(snap.total_lane_mismatches()) +
                        kFenceWeight * static_cast<double>(snap.fences) +
                        kUnrecoveredWeight * static_cast<double>(snap.unrecovered) +
                        kDetectionWeight * static_cast<double>(snap.detections);
  return capacity / (1.0 + penalty);
}

void BackendPool::begin_product(std::size_t i, std::uint64_t now) {
  Slot& slot = slots_.at(i);
  if (cfg_.retrim_budget > 0 && now >= slot.window_start &&
      now - slot.window_start >= cfg_.retrim_window) {
    // Window rollover refills the budget.  Windows are anchored to first
    // use, then advance by whole window lengths: the budget resets
    // exactly at the boundary multiple, not at the first product after
    // it — a slot idling past several boundaries lands in the window
    // `now` actually falls in, with window_start a true multiple.
    slot.window_start +=
        ((now - slot.window_start) / cfg_.retrim_window) * cfg_.retrim_window;
    slot.retrims_spent = 0;
  }
  const bool clamp = slot.retrims_spent >= cfg_.retrim_budget;
  if (clamp != slot.clamped) {
    slot.backend->set_escalation(clamp ? clamped_escalation_ : cfg_.guarded.escalation);
    slot.clamped = clamp;
  }
  if (slot.clamped) ++throttled_products_;
}

void BackendPool::end_product(std::size_t i, std::size_t retrims_spent) {
  // A re-trim is debited against the window its product began in — a
  // product straddling a boundary charges once, never to both windows.
  slots_.at(i).retrims_spent += retrims_spent;
}

std::size_t BackendPool::retrims_left(std::size_t i) const {
  const Slot& slot = slots_.at(i);
  return slot.retrims_spent >= cfg_.retrim_budget ? 0 : cfg_.retrim_budget - slot.retrims_spent;
}

bool BackendPool::canary_probe(std::size_t i) {
  Slot& slot = slots_.at(i);
  faults::GuardedBackend& be = *slot.backend;
  // Probation recovery runs with the full ladder whatever the serving
  // budget clamp says: the probe is off the serving path, and the clamp
  // exists to protect serving latency, not to starve recovery.
  be.set_escalation(cfg_.guarded.escalation);
  const faults::HealthSnapshot before = be.monitor().snapshot();
  const Matrix c = be.matmul(canary_a_, canary_b_);
  (void)c;
  const faults::HealthSnapshot after = be.monitor().snapshot();
  const bool mismatched = after.mismatched_tiles != before.mismatched_tiles ||
                          after.unrecovered != before.unrecovered;
  const bool drifted = after.drift_tiles != before.drift_tiles ||
                       be.drift().excursion_lanes() > 0;
  const bool clean = !mismatched && !drifted && alive(i);
  if (!clean && alive(i)) be.force_retrim();
  // Restore the clamp the slot was under for when it rejoins rotation.
  be.set_escalation(slot.clamped ? clamped_escalation_ : cfg_.guarded.escalation);
  return clean;
}

void BackendPool::tick(std::uint64_t now) {
  const QuarantineConfig& q = cfg_.quarantine;
  if (!q.enabled) return;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (!alive(i)) continue;  // fully fenced is dead, not quarantined
    if (!slot.probation) {
      const faults::HealthSnapshot snap = slot.backend->monitor().snapshot();
      const faults::DriftSnapshot drift = slot.backend->drift().snapshot();
      const bool trigger =
          drift.excursions >= q.excursion_lanes ||
          snap.unrecovered - slot.seen_unrecovered >= q.unrecovered_products ||
          snap.fences - slot.seen_fences >= q.fence_events ||
          (q.retrim_storm > 0 && snap.retrims - slot.seen_retrims >= q.retrim_storm);
      if (trigger) {
        slot.probation = true;
        slot.backoff = q.probe_backoff;
        slot.next_probe_at = now + slot.backoff;
        slot.clean_probes = 0;
        slot.unclean_at_max = false;
        ++quarantines_;
        quarantine_log_.push_back({QuarantineEventKind::kQuarantined, i, now, false});
      }
      continue;
    }
    if (now < slot.next_probe_at) continue;
    const bool clean = canary_probe(i);
    ++canary_probes_;
    quarantine_log_.push_back({QuarantineEventKind::kProbe, i, now, clean});
    slot.unclean_at_max = !clean && slot.backoff == q.probe_backoff_max;
    if (clean) {
      if (++slot.clean_probes >= q.readmit_clean_probes) {
        slot.probation = false;
        ++readmissions_;
        quarantine_log_.push_back({QuarantineEventKind::kReadmitted, i, now, true});
        // New clean point: the triggers arm on damage after this.
        const faults::HealthSnapshot snap = slot.backend->monitor().snapshot();
        slot.seen_fences = snap.fences;
        slot.seen_unrecovered = snap.unrecovered;
        slot.seen_retrims = snap.retrims;
      } else {
        // Confirmations run at the base cadence — readmission should be
        // prompt once the slot looks healthy again.
        slot.next_probe_at = now + q.probe_backoff;
      }
    } else {
      slot.clean_probes = 0;
      slot.backoff = std::min(slot.backoff * 2, q.probe_backoff_max);
      slot.next_probe_at = now + slot.backoff;
    }
  }
}

std::uint64_t BackendPool::next_probe_at() const {
  std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.probation && alive(i)) next = std::min(next, slot.next_probe_at);
  }
  return next;
}

bool BackendPool::probation_can_back_off() const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.probation && alive(i) && !slot.unclean_at_max) return true;
  }
  return false;
}

}  // namespace pdac::serve
