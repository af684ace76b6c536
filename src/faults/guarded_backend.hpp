// guarded_backend.hpp — GEMM through a live (mutable, possibly
// mid-product-faulting) lane bank: each operand element is encoded by the
// lane that carries it (x rail for A, y rail for B), reductions are packed
// onto the surviving WDM channels, and fewer survivors charge more chunks
// per reduction.  The bank is referenced, not owned.
//
// The lane bank is the only encoder and carries every fault hook; the
// tile reductions run on ptc::FusedKernel, the kernel PhotonicGemm runs,
// snapshotted once from a nominal amplitude-domain chain (full optics and
// ADC off).  The backend folds transient upsets, the rescale and the tile
// sums over the kernel's raw dots, and charges ptc::tile_step_events over
// the surviving packing.
//
// With GuardConfig::enabled off this is the plain lane executor.  On (the
// default) it detects silent corruption in-band, at tile granularity,
// through ptc::verify_tile, and drives the faults::EscalationPolicy
// ladder until the product verifies or the ladder is exhausted.
//
// Trust model (DESIGN.md §12).  The controller snapshots every lane's
// full encode table at calibration time — construction, and again after
// each escalation self-test, the only points hardware state is verified
// trustworthy — into a pinned LaneEncodeTable.  Data always encodes
// through the lanes' CURRENT state; checksum references are digital
// predictions from the GOLDEN snapshot.  Both come from one LaneEncoder
// (lane_table.hpp), and every operand is built and grown by
// ptc::prepare_operand / ptc::append_operand with that encoder.
// On healthy hardware the two are bit-identical LUTs, so the residual is
// pure floating-point reassociation and the noise-calibrated band
// (ptc::guard_tolerance) yields provably ~0 false positives; any fault
// that perturbs an encode — stuck MRR, dead PD bit, TIA gain step, bias
// walk — diverges current from golden and lands orders of magnitude
// outside the band in the first tile it touches.  Crucially this also
// catches faults striking BEFORE a product starts: re-deriving the
// reference from the live state would corrupt both sides identically.
// While golden is pinned at the bank's current epoch, the golden and
// current tables hold the same bits (every lane-state write moves the
// epoch), so a B operand stages its golden copy (`reference`) only when
// golden is not pinned there; otherwise `encoded` is the golden copy
// too.  A fault or fence moves the epoch, the cached entry misses, and
// the operand rebuilt after it stages a copy again; a re-pin that leaves
// the epoch where it was rebuilds an entry that carries one.  The A side always encodes golden into its own matrix,
// since storm steps re-encode the current one in place.
//
// Mid-product fault storms: attach_storm() hooks a FaultInjector whose
// clock advances `steps_per_tile` before every tile step, so faults land
// between tiles of one product exactly like the hardware timeline.  With
// a storm attached the tile loop serializes, and each tile step sees its
// operand slices as the live lanes encode them at that step.  Every A row
// stripe and B column stripe carries the bank epoch its encodes reflect;
// a step re-encodes a stripe only when the epoch has moved past that
// stamp.  The re-encode reads the current coefficient table when it is
// fresh and the live lane models otherwise; both give the same bits.  A
// stale table is rebuilt once the stale elements met at the current
// epoch reach its entry count, so a bias walk, which moves the epoch
// every step, keeps narrow stripes on the live models.  An encode is a
// pure function of lane state and input, and every lane-state write
// bumps the epoch, so a skipped re-encode would have written the same
// bits.  The retry rung refreshes its tiles the same way.  Without a
// storm, operands are pre-encoded once per product and the loop is
// tile-parallel — bit-identical, since lane state cannot change
// mid-product.
//
// Recovery (escalation.hpp): mismatching tiles are re-run per the ladder
// — retry (re-encode + re-run), targeted self-test + re-trim of the
// lanes the product uses (then golden re-snapshot + operand re-prepare),
// fence + full degraded re-run on the surviving channels — bounded per
// product, with every rung, probe and re-executed event recorded in the
// HealthMonitor.  events() carries the data-path work actually executed
// (including recovery re-runs); the pure checksum-lane charge stays
// separate in the monitor so arch::event_energy can price both honestly.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "faults/drift_tracker.hpp"
#include "faults/escalation.hpp"
#include "faults/fault_injector.hpp"
#include "faults/health_monitor.hpp"
#include "faults/lane_bank.hpp"
#include "faults/lane_table.hpp"
#include "nn/backend.hpp"
#include "ptc/abft.hpp"
#include "ptc/kernel.hpp"
#include "ptc/tile_scheduler.hpp"

namespace pdac::faults {

struct GuardedBackendConfig {
  /// Tile geometry (matches ptc::GemmConfig).
  std::size_t array_rows{8};
  std::size_t array_cols{8};
  /// Simulation workers for the storm-free tile dispatch (same semantics
  /// as ptc::GemmConfig::threads); results are bit-identical at any
  /// value.  Storm runs serialize regardless.
  std::size_t threads{1};
  /// Weight-stationary operand cache for matmul_cached products: an
  /// entry is served while the bank's epoch and channel packing hold.
  nn::OperandCacheConfig cache{};
  /// KV-history operand cache for matmul_kv products (DESIGN.md §17):
  /// per-sequence growing operands, appended in place while the bank's
  /// epoch and packing hold; an epoch move makes the entry a miss.
  nn::OperandCacheConfig kv_cache{nn::kKvCacheCapacityBytes};
  /// Checksum guard band.  Off, the backend is the plain lane executor:
  /// no golden reference, checksum stripes, verdicts, ladder or monitor
  /// record.  Leave noise_sigma 0 on the deterministic lane path.
  ptc::GuardConfig guard{.enabled = true};
  /// Recovery ladder bounds + the targeted self-test's BIST config —
  /// including the drift-hysteresis governor knobs (proactive_retrim,
  /// retrim_cooldown_products, window_retrims/window_products).
  EscalationConfig escalation{};
  /// Per-lane EWMA drift estimation (drift_tracker.hpp): thresholds for
  /// the clean / drifting / excursion classification the proactive
  /// re-trim rung and the serving quarantine policy read.
  DriftTrackerConfig drift{};
  /// Numeric tier for the tile data dots (DESIGN.md §15), one of two:
  ///   kKernel     — FusedKernel::run_tile, serial accumulation in
  ///                 ascending reduction position (default): the
  ///                 reference contract, equal to Σₚ of the per-lane
  ///                 encodes bit for bit.
  ///   kKernelSimd — FusedKernel::run_tile_fast, one blocked dot per
  ///                 output (common/simd.hpp): in-band reassociation,
  ///                 same verdict machinery.
  /// Any other path is rejected at construction: a lane bank has no
  /// device graph to stage chunks through, and the integer tier is
  /// retired.  ptc::fastest_path() resolves the faster of the two.
  /// Checksum references are double-precision golden dots on either
  /// tier, so detection semantics never change.
  ptc::ExecutionPath path{ptc::ExecutionPath::kKernel};
};

/// ptc::fastest_path(), whatever the bank.  Kept only for
/// perfbench/src/serve.cpp; new callers use ptc::fastest_path.
[[nodiscard]] inline ptc::ExecutionPath auto_execution_path(const LaneBank& /*bank*/) {
  return ptc::fastest_path();
}

/// A transient single-dot upset: an SEU-class glitch that corrupts one
/// detector readout of the *next* product's initial pass by `delta` (raw
/// accumulator units).  Cleared after that pass, so a retry re-run — or
/// the SEC correction that makes the retry unnecessary — sees clean
/// hardware.  Output coordinates are global (row, col) of the product.
struct DotUpset {
  std::size_t row{0};
  std::size_t col{0};
  double delta{0.0};
};

class GuardedBackend final : public nn::GemmBackend {
 public:
  /// `shared_monitor` (optional) replaces the backend's own monitor so a
  /// fleet of backends can attribute into one rollup; HealthMonitor is
  /// internally synchronized, so concurrent products reconcile exactly.
  explicit GuardedBackend(LaneBank& bank, GuardedBackendConfig cfg = {},
                          HealthMonitor* shared_monitor = nullptr);

  /// Product through the surviving lanes, when guarded verified tile by
  /// tile against the golden references and recovered through the
  /// escalation ladder.  With every channel fenced the accelerator is
  /// offline: all-zero result, no events, no product recorded.
  [[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b) override;

  /// Same product with the prepared B side cached across calls,
  /// invalidated by the bank's epoch and by channel-packing changes.
  [[nodiscard]] Matrix matmul_cached(const Matrix& a, const Matrix& b,
                                     const nn::WeightHandle& weight) override;

  /// Guarded product against a GROWING operand (DESIGN.md §17).  While
  /// the bank's epoch and channel packing hold, the resident prepared
  /// operand (current encodings, the golden copy when staged, checksum
  /// stripes) is extended in place with just the new kv rows; an epoch
  /// bump — any re-trim or fence — makes the entry a miss, and a packing
  /// or scale change forces a rebuild, so appends can never bridge a
  /// recalibration.  Outputs, events, and guard verdicts are
  /// bit-identical to the unprepared matmul at every length; an
  /// escalation mid-product rebuilds the resident entry like
  /// matmul_cached refreshes the weight cache.
  [[nodiscard]] Matrix matmul_kv(const Matrix& a, const Matrix& kv,
                                 const nn::KvHandle& handle) override;
  void release_kv(std::uint64_t id) override { kv_cache_.erase(id); }

  [[nodiscard]] std::string name() const override { return "photonic-guarded"; }
  [[nodiscard]] const nn::OperandCache* operand_cache() const override { return &cache_; }
  [[nodiscard]] nn::OperandCache& cache() { return cache_; }
  [[nodiscard]] const nn::OperandCache* kv_cache() const override { return &kv_cache_; }

  /// Re-snapshot the golden encode tables from the bank's current state.
  /// Call after any *trusted* recalibration (production trim, scheduled
  /// self-test); the backend calls it itself after escalation
  /// self-tests.  Never call on unverified state — golden would then
  /// bless the fault.
  void recalibrate();

  /// Drive `injector` forward by `steps_per_tile` before every tile
  /// step, so scheduled faults strike mid-product.  The injector must
  /// target this backend's bank.  Pass nullptr to detach.
  void attach_storm(FaultInjector* injector, std::uint64_t steps_per_tile);

  /// Queue a transient single-dot upset for the next product (test and
  /// storm-bench hook for the SEC-correction path).
  void inject_dot_upset(DotUpset upset) { pending_upsets_.push_back(upset); }

  /// Unconditional targeted re-trim: self-test every surviving lane,
  /// re-snapshot golden, reset the drift tracker.  The serving pool's
  /// probation path calls this when a canary probe comes back unclean —
  /// recovery runs off the serving path, so it deliberately bypasses the
  /// cooldown and window governor (it still burns honest probe charges
  /// into the monitor, and counts as a re-trim).
  void force_retrim();

  /// Swap the recovery ladder's bounds at runtime — the serving layer's
  /// re-trim budget throttles a backend by handing it a ladder with
  /// max_retrims = 0 until the budget refills.
  void set_escalation(const EscalationConfig& escalation) {
    cfg_.escalation = escalation;
    policy_ = EscalationPolicy(escalation);
  }

  [[nodiscard]] const LaneBank& bank() const { return bank_; }
  [[nodiscard]] const HealthMonitor& monitor() const { return *monitor_; }
  [[nodiscard]] HealthMonitor& monitor() { return *monitor_; }
  [[nodiscard]] const EscalationPolicy& policy() const { return policy_; }
  [[nodiscard]] const GuardedBackendConfig& config() const { return cfg_; }
  [[nodiscard]] const DriftTracker& drift() const { return tracker_; }
  [[nodiscard]] DriftTracker& drift() { return tracker_; }
  /// Guarded products run (the governor's product clock).
  [[nodiscard]] std::size_t products_run() const { return products_run_; }

 private:
  /// Per-product governor bookkeeping at matmul entry: advance the
  /// product clock, roll the re-trim window at its exact boundary, and
  /// fire the proactive re-trim when the drift tracker reports an
  /// excursion and the cooldown + window allow it.
  void product_entry();
  void maybe_proactive_retrim();
  /// Roll window_start_product_ forward by whole window lengths so the
  /// budget resets exactly at boundary multiples.
  void roll_retrim_window();
  /// Windowed governor verdict: may a re-trim (ladder or proactive) be
  /// spent right now?
  [[nodiscard]] bool retrim_allowed() const;
  /// Debit one re-trim against the window and start the cooldown dwell.
  void note_retrim();
  /// Feed per-lane screen errors into the drift tracker as over-budget
  /// excess — before recalibrate() resets the levels, so the samples are
  /// at least counted (snapshot telemetry) and detect-only self-tests
  /// leave graded evidence behind.
  void observe_probes(const SelfTestReport& report);

  /// The faults lane encoder for `rail` under `channels`: current state
  /// from the coefficient table (the live lanes when it is stale), golden
  /// state from the snapshot.
  [[nodiscard]] LaneEncoder lane_encoder(std::size_t rail,
                                         const std::vector<std::size_t>& channels) const;

  /// The spec every operand of this backend is prepared and appended
  /// under: bank epoch, surviving packing and, when guarded, the checksum
  /// stripes unless column-only, and the golden reference while golden is
  /// not pinned at the bank's epoch.
  [[nodiscard]] ptc::OperandSpec operand_spec() const;

  /// Full pipeline for one product (shared by all matmul entry points):
  /// the outage check, governor entry, obtain, data pass and, when
  /// guarded, verdicts and the ladder.  `bsrc` is the B operand's source
  /// in `baxis` orientation — B itself, or Bᵀ for the KV scores path,
  /// whose history IS the transpose.  The operand comes from `cache`
  /// under (id, version) (id 0 = uncached); an escalation rung that
  /// rebuilds it refreshes that entry.
  [[nodiscard]] Matrix run_product(const Matrix& a, const Matrix& bsrc, ptc::GrowAxis baxis,
                                   nn::OperandCache& cache, std::uint64_t id,
                                   std::uint64_t version);

  /// The prepared operand of `src` (`axis` orientation) from `cache`
  /// under (id, version) and the bank epoch: ptc::append_operand grows
  /// or confirms a fresh entry staged as operand_spec() stages,
  /// ptc::prepare_operand builds otherwise; id 0 builds uncached.
  [[nodiscard]] std::shared_ptr<const ptc::PreparedOperand> obtain(nn::OperandCache& cache,
                                                                   std::uint64_t id,
                                                                   std::uint64_t version,
                                                                   const Matrix& src,
                                                                   ptc::GrowAxis axis);

  /// Compute one tile: the kernel's data dots from `ae` (current A
  /// encodes) × `bdata` (current B encodes), plus `upsets` (nullable, the
  /// transient dot glitches of the initial pass), rescaled into `c`, with
  /// the raw row and column sums staged in `sums` (a worker_sums slot).
  /// Guarded, returns ptc::verify_tile's verdict against `ae_gold` /
  /// `xsum` / `pb`, with its single-error site corrected in place when
  /// sec_correction is on.
  [[nodiscard]] ptc::TileCheck run_tile(const ptc::Tile& tile, std::size_t t, const Matrix& ae,
                                        const Matrix& ae_gold, const Matrix& xsum,
                                        const Matrix& bdata, const ptc::PreparedOperand& pb,
                                        double rescale, Matrix& c, std::span<double> sums,
                                        const std::vector<DotUpset>* upsets = nullptr) const;

  /// Pool worker `worker`'s tile-sum scratch: array_rows + array_cols
  /// doubles of tile_sums_.
  [[nodiscard]] std::span<double> worker_sums(std::size_t worker);

  /// kFence rung: full calibration-table readback of the implicated
  /// lanes against the golden snapshot, fencing every lane that has
  /// diverged.  Returns the number of lanes fenced (epoch is bumped iff
  /// > 0); probe charges land in the health monitor.
  std::size_t fence_diverged_lanes(const std::vector<std::size_t>& channels);

  /// Flat lane indices (both rails) of the channels in `channels`.
  [[nodiscard]] std::vector<std::size_t> implicated_lanes(
      const std::vector<std::size_t>& channels) const;

  LaneBank& bank_;
  GuardedBackendConfig cfg_;
  /// Amplitude-domain tile kernel: a nominal Ddot with full optics and
  /// ADC off, so its tiles reduce the lane encodes and nothing else.
  ptc::FusedKernel kernel_;
  std::unique_ptr<ThreadPool> pool_;
  /// Raw tile row and column sums, one array_rows + array_cols slot per
  /// pool worker, sized once so no tile allocates.
  std::vector<double> tile_sums_;
  nn::OperandCache cache_;
  nn::OperandCache kv_cache_;
  EscalationPolicy policy_;
  HealthMonitor own_monitor_;
  HealthMonitor* monitor_{&own_monitor_};  ///< shared fleet monitor when set
  std::vector<DotUpset> pending_upsets_;   ///< consumed by the next product

  /// Golden snapshot: every lane's amplitude at every code, pinned at
  /// the last trusted calibration point (recalibrate()).
  LaneEncodeTable golden_;

  /// Current-state lane coefficients for prepares, appends, A-side
  /// encodes and storm re-encodes; re-ensured at product entry and after
  /// every ladder rung that moves the epoch, and rebuilt by a storm or
  /// retry tile step once the stale elements met at the current epoch
  /// reach lanes · codes (until then stale stripes re-encode through the
  /// live lanes).
  LaneEncodeTable table_;

  FaultInjector* storm_{nullptr};
  std::uint64_t storm_steps_per_tile_{0};
  std::uint64_t storm_clock_{0};

  /// Per-lane EWMA drift levels (DESIGN.md §16); reset at every trusted
  /// recalibration point alongside the golden snapshot.
  DriftTracker tracker_;
  // Re-trim governor state (survives set_escalation ladder swaps — the
  // serving clamp changes bounds, not history).
  std::size_t products_run_{0};
  std::size_t window_start_product_{0};
  std::size_t window_retrims_spent_{0};
  std::size_t last_retrim_product_{0};
  bool retrimmed_ever_{false};
};

}  // namespace pdac::faults
