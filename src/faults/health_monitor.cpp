#include "faults/health_monitor.hpp"

#include <algorithm>

namespace pdac::faults {

void HealthMonitor::record_product(const ptc::GuardOutcome& outcome) {
  if (!outcome.enabled) return;
  std::lock_guard<std::mutex> lk(mu_);
  ++snap_.products;
  snap_.tiles_checked += outcome.tiles_checked;
  snap_.mismatched_tiles += outcome.mismatched_tiles;
  snap_.sec_corrections += outcome.tiles_corrected;
  snap_.checksum_events += outcome.checksum_events;
  if (outcome.mismatched_tiles > 0) {
    ++snap_.detections;
    snap_.detection_latency_tiles += outcome.first_mismatch + 1;
  }
  ptc::fold_worst_residual(outcome.worst_residual, outcome.worst_tolerance, snap_.worst_residual,
                           snap_.worst_tolerance);
  snap_.drift_tiles += outcome.drift_tiles;
  if (outcome.drift_tiles > 0) ++snap_.drift_products;
  snap_.worst_drift_ratio = std::max(snap_.worst_drift_ratio, outcome.worst_drift_ratio);
}

void HealthMonitor::record_proactive_retrim() {
  std::lock_guard<std::mutex> lk(mu_);
  ++snap_.proactive_retrims;
}

void HealthMonitor::record_governed_retrim() {
  std::lock_guard<std::mutex> lk(mu_);
  ++snap_.governed_retrims;
}

void HealthMonitor::record_action(GuardAction action) {
  std::lock_guard<std::mutex> lk(mu_);
  switch (action) {
    case GuardAction::kAccept: return;
    case GuardAction::kRetry: ++snap_.retries; break;
    case GuardAction::kRetrim: ++snap_.retrims; break;
    case GuardAction::kFence: ++snap_.fences; break;
    case GuardAction::kGiveUp: ++snap_.unrecovered; break;
  }
}

void HealthMonitor::record_self_test(const SelfTestReport& report) {
  std::lock_guard<std::mutex> lk(mu_);
  snap_.probe_events += report.probe_events;
  for (const LaneOutcome& lane : report.lanes) {
    if (lane.verdict == LaneVerdict::kHealthy) continue;
    // Already-fenced lanes are reported dead without being screened —
    // that is old news, not a fresh implication.
    if (!lane.retrimmed && lane.screen_error_before == 0.0) continue;
    if (snap_.lane_mismatches.size() <= lane.lane) {
      snap_.lane_mismatches.resize(lane.lane + 1, 0);
    }
    ++snap_.lane_mismatches[lane.lane];
  }
}

void HealthMonitor::record_retry_events(const ptc::EventCounter& events) {
  std::lock_guard<std::mutex> lk(mu_);
  snap_.retry_events += events;
}

void HealthMonitor::record_probe_events(std::size_t probes) {
  std::lock_guard<std::mutex> lk(mu_);
  snap_.probe_events += probes;
}

void HealthMonitor::record_implicated_lane(std::size_t lane) {
  std::lock_guard<std::mutex> lk(mu_);
  if (snap_.lane_mismatches.size() <= lane) snap_.lane_mismatches.resize(lane + 1, 0);
  ++snap_.lane_mismatches[lane];
}

HealthSnapshot HealthMonitor::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return snap_;
}

void HealthMonitor::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  snap_ = HealthSnapshot{};
}

}  // namespace pdac::faults
