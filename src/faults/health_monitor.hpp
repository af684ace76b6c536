// health_monitor.hpp — fleet-health aggregation for the ABFT guard.
//
// One monitor rides along a guarded backend and accumulates everything
// operations would page on: how many products/tiles were verified, how
// many mismatched, how far into a product the first corruption was
// caught (detection latency, in tiles), which recovery rungs fired, and
// which lanes the escalation self-tests found over budget.  The two
// event counters keep the overhead honest and separable: checksum_events
// is the pure guard charge (spare row/column lanes), retry_events is the
// data-path work re-executed by recovery — arch::event_energy prices
// both, and eval::report renders the summary.
//
// Concurrency: every record_* entry point is internally synchronized, so
// one monitor can be shared by several guarded backends running products
// in parallel (the serving pool's fleet rollup) and the counts reconcile
// exactly.  snapshot() returns a coherent copy taken under the same
// lock; the serving pool reads recovery activity from snapshot
// differences (BackendPool::end_product), so the monitor pushes nothing.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "faults/escalation.hpp"
#include "ptc/abft.hpp"
#include "ptc/event_counter.hpp"

namespace pdac::faults {

struct HealthSnapshot {
  std::size_t products{0};          ///< guarded products run
  std::size_t detections{0};        ///< products with ≥ 1 mismatched tile
  std::size_t tiles_checked{0};
  std::size_t mismatched_tiles{0};
  /// Tiles repaired in place by single-error correction: detected and
  /// fixed digitally from the checksum residual, no recovery rung spent.
  std::size_t sec_corrections{0};
  std::size_t retries{0};
  std::size_t retrims{0};
  std::size_t fences{0};            ///< degraded re-runs taken
  std::size_t unrecovered{0};       ///< products returned best-effort
  /// Tiles whose verdict absorbed in-band drift (GuardConfig::drift_band)
  /// and products containing at least one such tile — watched wander, no
  /// rung spent (DESIGN.md §16).
  std::size_t drift_tiles{0};
  std::size_t drift_products{0};
  double worst_drift_ratio{0.0};    ///< largest absorbed residual/tolerance
  /// Re-trims fired at product entry by the drift tracker's excursion
  /// signal (counted inside `retrims` too — this splits out the cause).
  std::size_t proactive_retrims{0};
  /// Re-trims the ladder or the proactive rung *wanted* but the windowed
  /// governor (EscalationConfig::window_retrims) refused.
  std::size_t governed_retrims{0};
  std::size_t probe_events{0};      ///< self-test probes burned by escalation
  /// Σ over detecting products of (first mismatched tile index + 1):
  /// how many tiles were scanned before corruption surfaced.
  std::size_t detection_latency_tiles{0};
  double worst_residual{0.0};
  double worst_tolerance{0.0};
  ptc::EventCounter checksum_events;  ///< spare checksum-lane charge
  ptc::EventCounter retry_events;     ///< data work re-executed by recovery
  /// Per-lane over-budget counts from escalation self-tests (flat lane
  /// index, LaneBank layout); sized on first record.
  std::vector<std::size_t> lane_mismatches;

  [[nodiscard]] double tile_mismatch_rate() const {
    return tiles_checked == 0
               ? 0.0
               : static_cast<double>(mismatched_tiles) / static_cast<double>(tiles_checked);
  }
  [[nodiscard]] double mean_detection_latency() const {
    return detections == 0 ? 0.0
                           : static_cast<double>(detection_latency_tiles) /
                                 static_cast<double>(detections);
  }
  /// Total lane implications across the bank — the guard-aware placement
  /// signal: how often escalation pinned blame on this backend's lanes.
  [[nodiscard]] std::size_t total_lane_mismatches() const {
    std::size_t total = 0;
    for (const std::size_t n : lane_mismatches) total += n;
    return total;
  }
};

class HealthMonitor {
 public:
  /// Fold one product's guard verdicts (tiles checked, mismatches,
  /// corrections, detection site, checksum-lane charge) into the running
  /// totals.
  void record_product(const ptc::GuardOutcome& outcome);

  /// Record a recovery rung taken for a mismatching tile.
  void record_action(GuardAction action);

  /// Fold an escalation self-test: probe charge plus per-lane
  /// over-budget attribution (recovered and dead lanes both count — the
  /// lane *was* implicated even when the re-trim saved it).
  void record_self_test(const SelfTestReport& report);

  /// Data-path events re-executed by a retry or degraded re-run.
  void record_retry_events(const ptc::EventCounter& events);

  /// Calibration probes burned outside a SelfTestReport (the fence
  /// rung's golden-table readback).
  void record_probe_events(std::size_t probes);

  /// Attribute a mismatch to one flat lane (fence-rung divergence).
  void record_implicated_lane(std::size_t lane);

  /// Mark the most recent re-trim as proactively fired by the drift
  /// tracker (call right after record_action(kRetrim)).
  void record_proactive_retrim();

  /// A re-trim request the windowed governor refused.
  void record_governed_retrim();

  /// Coherent copy of the running totals.
  [[nodiscard]] HealthSnapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mu_;
  HealthSnapshot snap_;
};

}  // namespace pdac::faults
