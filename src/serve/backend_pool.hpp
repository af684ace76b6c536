// backend_pool.hpp — a fleet of checksum-guarded photonic backends for
// the continuous-batching serving engine (DESIGN.md §14).
//
// Every slot is an identically-fabricated accelerator: its own LaneBank
// (same fabrication seed — bit-identical encodes at fault rate 0), its
// own GuardedBackend with a weight-stationary operand cache, and
// optionally its own FaultInjector storm advanced per tile step.  The
// pool layers two serving-side policies on top of the guard:
//
//  * Guard-aware health scores.  health_score() folds each backend's
//    HealthMonitor attribution — lane implications from escalation
//    self-tests, fences taken, unrecovered products, detections, at
//    fixed weights 0.3 / 1 / 2 / 0.1 — with its surviving channel
//    capacity into one placement signal.  The
//    scheduler steers work toward clean backends proportionally, so a
//    chronically-implicated array serves less traffic instead of
//    stalling the whole batch.
//
//  * A re-trim budget.  Targeted self-tests are the expensive rung
//    (probe charges scale with implicated lanes), so each backend gets
//    `retrim_budget` re-trims per `retrim_window` virtual cycles.  When
//    a slot exhausts its window budget the pool clamps its escalation
//    ladder to max_retrims = 0 — the ladder then jumps retry → fence —
//    and restores the full ladder when the window rolls over.  Windows
//    roll at exact boundary multiples of the window length (anchored to
//    first use), so a re-trim spent by a product that straddles a
//    boundary is charged once, to the window the product began in.
//
//  * Quarantine / readmission (DESIGN.md §16).  A backend whose drift
//    tracker reports excursion lanes — or whose escalation history shows
//    fresh fences, give-ups, or a re-trim storm — is pulled from
//    rotation into probation: the placement loop skips it, and the pool
//    probes it with small canary products on an exponential-backoff
//    schedule.  An unclean probe triggers force_retrim() (recovery runs
//    off the serving path, ungoverned) and doubles the backoff; only K
//    consecutive clean probes readmit the slot.  Invariants: a
//    quarantined slot never takes serving work; readmission requires K
//    consecutive clean probes (any unclean probe re-zeros the count);
//    probation never fences — it re-trims, so capacity is preserved.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/guarded_backend.hpp"
#include "faults/lane_bank.hpp"

namespace pdac::serve {

/// Probation policy for drifting/escalating backends (DESIGN.md §16).
/// Off by default: quarantine is a serving-layer opt-in, and a disabled
/// pool behaves exactly as before this policy existed.
struct QuarantineConfig {
  bool enabled{false};
  /// Drift-tracker excursion lanes that trigger probation.
  std::size_t excursion_lanes{1};
  /// Fresh give-ups since the last clean point that trigger probation.
  std::size_t unrecovered_products{1};
  /// Fresh fence rungs since the last clean point that trigger probation.
  std::size_t fence_events{2};
  /// Fresh re-trims since the last clean point that trigger probation
  /// (a re-trim storm is an escalation-history signal even when every
  /// re-trim succeeded).  0 disables this trigger.
  std::size_t retrim_storm{0};
  /// First probe delay after quarantine [virtual cycles]; doubles after
  /// every unclean probe up to `probe_backoff_max`.  Clean-but-not-yet-K
  /// probes re-probe at the base cadence.
  std::uint64_t probe_backoff{256};
  std::uint64_t probe_backoff_max{4096};
  /// Consecutive clean canary probes required for readmission.  Every
  /// probe runs the same fixed seeded canary product (array_rows × 16 by
  /// 16 × array_cols), so probe verdicts are comparable across the run.
  std::size_t readmit_clean_probes{2};
};

enum class QuarantineEventKind { kQuarantined, kProbe, kReadmitted };

struct QuarantineEvent {
  QuarantineEventKind kind{QuarantineEventKind::kProbe};
  std::size_t backend{0};
  std::uint64_t at{0};      ///< virtual cycle the event fired
  bool clean{false};        ///< probe verdict (probes only)
};

struct BackendPoolConfig {
  std::size_t backends{2};
  /// Fabrication draw shared by every slot: identical seeds give
  /// identical lane physics, the basis of the pool's bit-identity.
  faults::LaneBankConfig bank{};
  faults::GuardedBackendConfig guarded{};
  /// Re-trims each backend may spend per budget window (0 = never
  /// re-trim: the ladder always skips straight from retry to fence).
  std::size_t retrim_budget{2};
  std::uint64_t retrim_window{4096};  ///< window length [virtual cycles]
  QuarantineConfig quarantine{};
};

class BackendPool {
 public:
  explicit BackendPool(const BackendPoolConfig& cfg);

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] faults::GuardedBackend& backend(std::size_t i) { return *slots_.at(i).backend; }
  [[nodiscard]] const faults::GuardedBackend& backend(std::size_t i) const {
    return *slots_.at(i).backend;
  }
  [[nodiscard]] const faults::LaneBank& bank(std::size_t i) const { return *slots_.at(i).bank; }

  /// Attach a per-slot fault storm (the injector is owned by the pool
  /// and advanced `steps_per_tile` before every tile the slot runs).
  void attach_storm(std::size_t i, const faults::FaultSchedule& schedule,
                    std::uint64_t steps_per_tile);

  /// A slot with every channel fenced is offline and can take no work.
  [[nodiscard]] bool alive(std::size_t i) const { return bank(i).usable_channels() > 0; }

  /// True while the slot sits in probation (quarantined, probe-only).
  [[nodiscard]] bool quarantined(std::size_t i) const { return slots_.at(i).probation; }

  /// Placement eligibility: alive and not quarantined.
  [[nodiscard]] bool in_rotation(std::size_t i) const { return alive(i) && !quarantined(i); }

  /// Quarantine housekeeping at virtual time `now`: evaluate the
  /// probation triggers against each slot's drift tracker and escalation
  /// history, and run any canary probes that have come due.  Idempotent
  /// at a given `now`; the engine calls it once per scheduling round.
  void tick(std::uint64_t now);

  /// Earliest pending canary probe, or UINT64_MAX when none — folded
  /// into the engine's time advance so an all-quarantined pool waits for
  /// its probes instead of failing the queue.
  [[nodiscard]] std::uint64_t next_probe_at() const;

  /// True while some alive slot in probation can still back off: its
  /// last probe was clean, or came back unclean below probe_backoff_max.
  /// Once none can, waiting for probes is all an idle pool with no slot
  /// in rotation would do, so the engine fails its queue instead.
  [[nodiscard]] bool probation_can_back_off() const;

  [[nodiscard]] std::size_t quarantines() const { return quarantines_; }
  [[nodiscard]] std::size_t readmissions() const { return readmissions_; }
  [[nodiscard]] std::size_t canary_probes() const { return canary_probes_; }
  [[nodiscard]] const std::vector<QuarantineEvent>& quarantine_log() const {
    return quarantine_log_;
  }

  /// Guard-aware placement score in [0, 1]: surviving-capacity fraction
  /// shrunk by the monitor's blame attribution.  0 means offline.
  [[nodiscard]] double health_score(std::size_t i) const;

  /// Window bookkeeping before a product: rolls the re-trim window over
  /// when `now` has left it and clamps/restores the slot's escalation
  /// ladder according to the remaining budget.
  void begin_product(std::size_t i, std::uint64_t now);

  /// Debit the re-trims a product actually spent.
  void end_product(std::size_t i, std::size_t retrims_spent);

  /// Re-trims the slot may still spend in the current window.
  [[nodiscard]] std::size_t retrims_left(std::size_t i) const;
  /// True while the slot's ladder is clamped to max_retrims = 0.
  [[nodiscard]] bool throttled(std::size_t i) const { return slots_.at(i).clamped; }
  /// Products run with a clamped ladder (budget-exhaustion pressure).
  [[nodiscard]] std::size_t throttled_products() const { return throttled_products_; }

  [[nodiscard]] const BackendPoolConfig& config() const { return cfg_; }

 private:
  struct Slot {
    std::unique_ptr<faults::LaneBank> bank;
    std::unique_ptr<faults::GuardedBackend> backend;
    std::unique_ptr<faults::FaultInjector> injector;
    std::uint64_t window_start{0};
    std::size_t retrims_spent{0};
    bool clamped{false};
    // -- probation state (DESIGN.md §16) ------------------------------
    bool probation{false};
    std::uint64_t next_probe_at{0};
    std::uint64_t backoff{0};
    std::size_t clean_probes{0};
    bool unclean_at_max{false};  ///< last probe unclean at probe_backoff_max
    /// Escalation-history baselines: counts already accounted for at the
    /// last clean point (readmission or construction), so the probation
    /// triggers fire on *fresh* damage only.
    std::size_t seen_fences{0};
    std::size_t seen_unrecovered{0};
    std::size_t seen_retrims{0};
  };

  /// One canary product on slot `i` with the full (unclamped) ladder:
  /// clean iff it finished with no new mismatched tiles, no new give-up,
  /// and no excursion lanes left in the tracker.  Unclean probes
  /// force_retrim() on the spot — probation is where recovery runs.
  [[nodiscard]] bool canary_probe(std::size_t i);

  BackendPoolConfig cfg_;
  faults::EscalationConfig clamped_escalation_;  ///< full ladder, max_retrims = 0
  std::vector<Slot> slots_;
  std::size_t throttled_products_{0};
  std::size_t quarantines_{0};
  std::size_t readmissions_{0};
  std::size_t canary_probes_{0};
  std::vector<QuarantineEvent> quarantine_log_;
  Matrix canary_a_;  ///< fixed seeded canary operands
  Matrix canary_b_;
};

}  // namespace pdac::serve
