// gemm_engine.hpp — tiled, tile-parallel matrix multiplication on the
// photonic core.
//
// C = A·B with both operands max-abs-scaled into [−1, 1], quantized to
// the driver's bit width, encoded by the modulators (DAC or P-DAC) and
// reduced through DDot units.
//
// Execution model (DESIGN.md §9): the output is partitioned into
// array_rows × array_cols tiles (tile_scheduler.hpp) and the tiles are
// dispatched across a thread pool.  Each worker reduces through its own
// Ddot instance (device objects are never shared mutably); operand
// encoding is amortized — every A row and B column is pushed through the
// shared encode LUT exactly once per product, mirroring the hardware's
// broadcast of one modulated row/column across a whole tile.  Results
// are bit-identical to serial execution at any thread count: every
// output element belongs to exactly one tile, its reduction order is
// fixed inside its dot product, and per-tile event counters are folded
// in tile-index order after the workers join.
//
// Event accounting contract (broadcast amortization): the counts model
// Lightening-Transformer's dynamically-operated 2-D DPTC array.  An
// H×W tile step modulates its H A-rows and W B-columns once each —
// (H + W)·k modulation events per tile, NOT the 2·k-per-dot that a
// standalone PhotonicDotEngine::dot charges — digitizes all H·W outputs
// (adc_events counts every output sample even when the functional
// adc_readout shortcut is off), and occupies the array for
// ⌈k/active_wavelengths⌉ cycles because the H·W DDots run concurrently.
// Detection, DDot-op and MAC counts come from the dots actually
// executed, so multiply()'s events and the analytic count_events() are
// equal field-for-field — a property the tests pin.  With a 1×1 array
// the tile contract degenerates to exactly the standalone per-dot
// convention ((1+1)·k = 2·k).
//
// Weight-stationary split (DESIGN.md §10): prepare_b() runs the whole
// B-side pipeline (max-abs scale, transpose, normalize, LUT-encode) once
// and returns a PreparedOperand; multiply_prepared() consumes it and is
// bit-identical to multiply() — numerics AND event counts — while
// skipping every B-side pass.  LLM weights are static across tokens, so
// decode loops prepare each weight matrix once and run it many times.
// Every PreparedOperand in the repository — this engine's and the faults
// layer's — is built by prepare_operand() and grown by append_operand()
// (DESIGN.md §17); executors differ only in the RowEncoder they hand in.
// An engine whose tier reads the full-optics quadratic form (kKernelSimd
// with use_full_optics) also sums each column's energy Σy² once when it
// prepares or appends — a reduction-axis append resumes
// each column's sum over just its new rows — and each A row's Σx² once
// per product, so the tiles sum only Σxy (kernel.hpp).  Every encode and
// readout quantizes whole spans through one exact span rule (DESIGN.md
// §18).
//
// ABFT guard (DESIGN.md §12, abft.hpp): with GemmConfig::guard enabled,
// prepare_b additionally builds one checksum column per array-width
// column stripe (cached with the operand; none under column_only, which
// runs no row lanes) and multiply_prepared runs the checksum lanes
// alongside every tile, judged by ptc::verify_tile — the one tile
// verdict every guarded executor shares, drift band included.  The
// engine never applies the verdict's single-error correction: a
// mismatch is how PhotonicBackend learns a cached operand was corrupted.
// The data path is untouched — numerics and EventCounter stay
// bit-identical to the unguarded product — and the checksum-lane charge
// is reported separately in GemmResult::guard.checksum_events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "ptc/abft.hpp"
#include "ptc/dot_engine.hpp"
#include "ptc/event_counter.hpp"
#include "ptc/kernel.hpp"
#include "ptc/tile_scheduler.hpp"

namespace pdac::ptc {

/// Which implementation executes the tile reductions (DESIGN.md §13).
///   kKernel      — the fused flat-array kernel (kernel.hpp), coefficient
///                  tables snapshotted at engine construction; bit-exact
///                  against the device graph — numerics AND event counts,
///                  clean or guarded, at any thread count (a fuzz-pinned
///                  contract) — and the accuracy reference.
///   kKernelSimd  — the kernel's SIMD fast tier: explicit 4/8-wide
///                  blocking (common/simd.hpp, AVX2+FMA when the CPU has
///                  it) over the same coefficient snapshot.  Arithmetic
///                  order changes, device semantics do not: event counts
///                  stay field-for-field equal to kKernel, outputs sit
///                  within the ABFT reassociation band (guard_tolerance)
///                  of the scalar tier, and the ABFT guard itself runs
///                  unchanged on top.  The production hot path.
///   kDeviceGraph — every chunk staged through the device objects
///                  (Ddot); the authoritative physical reference.
///   kKernelQuant — kept only because perfbench/src/common.cpp names it;
///                  no executor runs it: PhotonicGemm and GuardedBackend
///                  reject it at construction (DESIGN.md §15).
enum class ExecutionPath { kKernel, kDeviceGraph, kKernelSimd, kKernelQuant };

/// The fastest tier both executors can run (DESIGN.md §15): kKernelSimd
/// when the CPU has the wide path (simd::has_fast_path), else the scalar
/// kernel.
[[nodiscard]] ExecutionPath fastest_path();

/// The B operand of C = A·B, fully prepared for the photonic array:
/// transposed into row-major columns, max-abs-normalized and pushed
/// through the encode LUT.  Reusing one across products is valid only
/// while the encoder state it was built under is unchanged — `epoch`
/// records that state (driver/trim/lane epoch, owner-defined) so caches
/// can refuse stale encodings.
///
/// Logical vs physical shape (KV appends, DESIGN.md §17): `rows`/`cols`
/// are the LOGICAL source dimensions.  `encoded`/`reference` always
/// hold exactly `cols` rows, but may carry more physical columns
/// than `rows` — a reduction-axis append pads column capacity
/// geometrically so a growing reduction axis (the KV context operand, one
/// V row per decode token) re-lays-out O(log t) times instead of every
/// token.  Every consumer reads row spans bounded by the logical
/// reduction length, so the padding is never touched by numerics, events
/// or guard verdicts.
struct PreparedOperand {
  Matrix encoded;         ///< (n × ≥k) encoded, normalized Bᵀ
  double scale{1.0};      ///< max-abs scale divided out before encoding
  /// Raw max-abs of every source element folded so far.  `scale` alone
  /// cannot arbitrate appends: an all-zero operand gets the fallback
  /// scale 1.0, indistinguishable from a genuine max of 1.0.  An append
  /// is bit-identical to a fresh prepare iff the new elements' max-abs
  /// stays ≤ this (the fresh scale would then come out bitwise equal).
  double abs_max{0.0};
  std::size_t rows{0};    ///< source b.rows() (= k, the reduction length)
  std::size_t cols{0};    ///< source b.cols() (= n)
  std::uint64_t epoch{0}; ///< encoder state stamp it was encoded under
  /// Lane-packing snapshot for degraded execution (faults layer): the
  /// usable channel each reduction position rides.  Empty on the healthy
  /// path, where packing is fixed by the engine's lane mask.
  std::vector<std::size_t> channels;

  /// ABFT checksum stripes (abft.hpp): row s is the digital sum of the
  /// golden columns in column-stripe s — Σ_j reference.row(j) when the
  /// operand carries a reference, Σ_j encoded.row(j) otherwise — where
  /// stripes are `checksum_stripe` columns wide (the preparing config's
  /// array_cols).  Built under a guarded spec and cached with the
  /// operand; empty (stripe 0) when prepared unguarded or column-only.
  Matrix checksum;
  std::size_t checksum_stripe{0};
  /// Golden (calibration-state) encoding of the operand for guarded
  /// execution, staged only while the live encoder may differ from the
  /// state the references were calibrated under: faults::GuardedBackend
  /// stages it when its golden snapshot is not pinned at the bank's
  /// current epoch, and rebuilds an entry whose staging no longer matches
  /// that rule.  Empty otherwise — always on PhotonicGemm, whose encoder is immutable, and
  /// on a lane operand built while golden was current — and then
  /// `encoded` is the golden copy too.
  Matrix reference;

  /// Quadratic-form column energies (kernel.hpp): energy[j] =
  /// FusedKernel::energy of column j over the LOGICAL reduction length
  /// `rows` — never the padded capacity — stamped with the length
  /// `energy_rows` they were summed at.  Staged only by a PhotonicGemm
  /// whose tier reads them (kKernelSimd with full optics) and empty
  /// otherwise; a product finding them at another length sums its own.
  /// Like the checksum stripes they are built from the payload at
  /// prepare/append time: a write to `encoded` behind the API leaves them
  /// at their prepared values.
  std::vector<double> energy;
  std::size_t energy_rows{0};
  /// Where each column's energy sum stopped, so a reduction-axis append
  /// continues it instead of re-summing the column (FusedKernel's resumed
  /// energy): simd::kDotSelfState blocked accumulators per column over the
  /// first `energy_rows` positions.  Only a reduction-axis append stages
  /// them (the first one sums from zero), so prepared weights carry none;
  /// every other energy write drops them.
  std::vector<double> energy_acc;

  /// True when `energy` holds the sums at this length.
  [[nodiscard]] bool has_energy() const { return energy_rows == rows && energy.size() == cols; }

  /// Resident size, for byte-capacity cache accounting.  Counts physical
  /// storage, so column-capacity padding is charged to the caches too.
  [[nodiscard]] std::size_t bytes() const {
    return sizeof(PreparedOperand) +
           (encoded.size() + checksum.size() + reference.size() + energy.size() +
            energy_acc.size()) *
               sizeof(double) +
           channels.size() * sizeof(std::size_t);
  }
};

/// Grow `m`'s physical column capacity to at least `cols` while keeping
/// every existing row's contents in place (Matrix::resize only preserves
/// rows when the column count is unchanged).  Geometric doubling keeps a
/// reduction axis growing one column per decode token amortized O(1) per
/// element.  New columns are zero-filled.
inline void grow_col_capacity(Matrix& m, std::size_t cols) {
  if (m.cols() >= cols) return;
  Matrix wide(m.rows(), std::max(cols, m.cols() * 2));
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto src = m.row(r);
    const auto dst = wide.row(r);
    for (std::size_t p = 0; p < src.size(); ++p) dst[p] = src[p];
  }
  m = std::move(wide);
}

/// Orientation of the source an operand is prepared from, which also
/// fixes the axis an append grows (DESIGN.md §17).  Either way the
/// source's columns are the fixed dimension and its rows the growing one.
enum class GrowAxis {
  kCols,  ///< source is Bᵀ (n × k): new source rows are new OUTPUT columns
  kRows,  ///< source is B (k × n): new source rows extend the REDUCTION axis
};

/// Encodes one normalized Bᵀ row segment: `norm[i]` sits at reduction
/// position `p0 + i`.  Writes the data amplitudes into `encoded` and, when
/// the operand stages them, the golden amplitudes into `reference` (empty
/// otherwise).  Called once per row segment, possibly from several pool
/// workers at once.
using RowEncoder = std::function<void(std::span<const double> norm, std::size_t p0,
                                      std::span<double> encoded, std::span<double> reference)>;

/// What an operand is stamped with and which optional parts it stages.
/// An append must be handed the spec the operand was prepared under, or
/// it refuses.
struct OperandSpec {
  std::uint64_t epoch{0};             ///< encoder-state stamp
  std::vector<std::size_t> channels;  ///< lane packing (faults layer); empty when fixed
  std::size_t checksum_stripe{0};     ///< checksum stripe width; 0 = no stripes
  bool reference{false};              ///< stage a golden `reference` encoding
};

/// Normalize a B-side source into Bᵀ orientation: out(j, p) = Bᵀ(j, p) / scale.
void stage_normalized_bt(const Matrix& src, GrowAxis axis, double scale, Matrix& out);

/// Build an operand from `src` (B for kRows, Bᵀ for kCols): the raw
/// max-abs and scale, the normalized Bᵀ (staged in `stage`), one
/// `encode` call per Bᵀ row on `pool`, and — per `spec` — the golden
/// reference and the checksum stripes (ascending-column sums).
[[nodiscard]] PreparedOperand prepare_operand(const Matrix& src, GrowAxis axis,
                                              const OperandSpec& spec, const RowEncoder& encode,
                                              ThreadPool& pool, Matrix& stage);

/// Grow `pb` to the longer source `src` (same orientation as it was
/// prepared from) by encoding only the new rows, continuing the checksum
/// stripes in fresh-prepare order: the result is bit-identical to
/// prepare_operand(src, axis, spec, …), and so is every output, event
/// count and guard verdict computed from it.  Returns false, leaving `pb`
/// untouched, whenever that identity cannot hold — epoch or channel
/// packing differ from `spec`, the source shrank or changed its fixed
/// dimension, the new elements' max-abs exceeds pb.abs_max (the fresh
/// scale would differ), the staged parts disagree with `spec`, or a
/// padded reduction axis would have to grow along the output axis.  The
/// caller then rebuilds.  A same-length source is an accepted no-op.
[[nodiscard]] bool append_operand(PreparedOperand& pb, const Matrix& src, GrowAxis axis,
                                  const OperandSpec& spec, const RowEncoder& encode,
                                  ThreadPool& pool, Matrix& stage);

struct GemmConfig {
  DotEngineConfig dot{};
  std::size_t array_rows{8};  ///< H: DDot rows sharing B-side operands
  std::size_t array_cols{8};  ///< W: DDot columns sharing A-side operands
  /// Simulation workers for the tile dispatch: 1 = serial (default),
  /// 0 = auto (PDAC_GEMM_THREADS env var or hardware concurrency).
  /// Results are bit-identical at any value.
  std::size_t threads{1};
  /// ABFT checksum guard (abft.hpp).  Off by default; when enabled the
  /// data path and its EventCounter stay bit-identical and the verdicts
  /// plus checksum-lane charge land in GemmResult::guard.
  GuardConfig guard{};
  /// Tile-reduction implementation; kKernel by default (bit-identical to
  /// kDeviceGraph, several times faster on the full-optics path).
  ExecutionPath path{ExecutionPath::kKernel};
};

struct GemmResult {
  Matrix c;
  EventCounter events;
  double a_scale{1.0};
  double b_scale{1.0};
  GuardOutcome guard;  ///< per-product ABFT verdicts; enabled=false when unguarded
};

class PhotonicGemm {
 public:
  PhotonicGemm(const core::ModulatorDriver& driver, GemmConfig cfg);

  /// Full photonic product: quantize, encode once per operand element,
  /// DDot-reduce tile-parallel, rescale.  Attaches the executed event
  /// counts (== count_events for the same shape).  Not reentrant: call
  /// from one thread at a time per engine (the engine parallelizes
  /// internally and reuses per-engine scratch buffers across calls).
  [[nodiscard]] GemmResult multiply(const Matrix& a, const Matrix& b) const;

  /// Run the B-side pipeline once: scale, transpose, normalize, encode.
  /// `epoch` stamps the encoder state (driver/trim/lane epoch) the
  /// operand was built under; the engine itself is immutable after
  /// construction, so 0 is fine when the caller tracks no epochs.
  [[nodiscard]] PreparedOperand prepare_b(const Matrix& b, std::uint64_t epoch = 0) const;

  /// prepare_b from an already-transposed source: `bt` is Bᵀ (n × k).
  /// Bit-identical to prepare_b(bt.transposed()) — the scale folds the
  /// same element multiset and every element goes through the same
  /// normalize + LUT ops — without materializing the transpose.  The KV
  /// scores operand (B = Kᵀ) hands its K cache straight in.
  [[nodiscard]] PreparedOperand prepare_bt(const Matrix& bt, std::uint64_t epoch = 0) const;

  /// Append-only extension of a prepared operand along the OUTPUT axis
  /// (new B columns = new rows of Bᵀ): append_operand with this engine's
  /// spec, so the result is bit-identical to prepare_bt(bt, epoch), or
  /// false (operand untouched) and the caller rebuilds.  Operands carrying
  /// faults-layer state (channel packing, golden reference) never match
  /// this engine's spec.
  [[nodiscard]] bool append_bt_rows(PreparedOperand& pb, const Matrix& bt,
                                    std::uint64_t epoch = 0) const;

  /// Append-only extension along the REDUCTION axis (new B rows = new
  /// rows of `b`, the KV context operand growing one V row per token),
  /// into padded column capacity.  Same contract as append_bt_rows.
  [[nodiscard]] bool append_b_rows(PreparedOperand& pb, const Matrix& b,
                                   std::uint64_t epoch = 0) const;

  /// C = A·prepared-B, skipping every B-side pass.  Bit-identical to
  /// multiply(a, b) for the same B — numerics and event counts alike:
  /// the counts model the hardware, which still modulates B columns per
  /// tile step (the DPTC array is dynamically operated); preparation
  /// only removes *simulator* work.  Same reentrancy contract as
  /// multiply().
  [[nodiscard]] GemmResult multiply_prepared(const Matrix& a, const PreparedOperand& b) const;

  /// Analytic event counts for an (m×k)·(k×n) product on the configured
  /// array, without running numerics — the workload tracer uses this for
  /// full-size model shapes.  Equal to the counts multiply() attaches.
  [[nodiscard]] EventCounter count_events(std::size_t m, std::size_t k, std::size_t n) const;

  /// Resolved worker count (threads == 0 resolved at construction).
  [[nodiscard]] std::size_t threads() const { return pool_->size(); }

  [[nodiscard]] const GemmConfig& config() const { return cfg_; }
  [[nodiscard]] const PhotonicDotEngine& engine() const { return engine_; }

 private:
  /// The operand spec this engine prepares and appends under: no packing
  /// or golden reference, stripes when guarded with row lanes.
  [[nodiscard]] OperandSpec operand_spec(std::uint64_t epoch) const;
  /// Encodes Bᵀ rows through the engine's memoized driver LUT.
  [[nodiscard]] RowEncoder lut_encoder() const;
  /// prepare_operand / append_operand under this engine's spec, plus the
  /// column energies when the tier reads them.
  [[nodiscard]] PreparedOperand prepare(const Matrix& src, GrowAxis axis,
                                        std::uint64_t epoch) const;
  [[nodiscard]] bool append(PreparedOperand& pb, const Matrix& src, GrowAxis axis,
                            std::uint64_t epoch) const;
  /// True when the tier reads quadratic-form energies (a fast tier under
  /// full optics) — the only engines that stage them.
  [[nodiscard]] bool reads_energy() const;
  /// Σy² of b's columns [j0, b.cols) into out[j0..); `out` is resized to
  /// b.cols.
  void sum_energy(const PreparedOperand& b, std::size_t j0, std::vector<double>& out) const;
  /// sum_energy into pb.energy from column j0 on, then stamp it; drops
  /// any resume state.
  void stage_energy(PreparedOperand& pb, std::size_t j0) const;
  /// Reduction-axis append: continue every column's energy from the resume
  /// state it left at `old_rows` when `extend` (sums at that length) and
  /// the state is staged, else sum from zero and stage the state; then
  /// stamp.
  void resume_energy(PreparedOperand& pb, std::size_t old_rows, bool extend) const;

  GemmConfig cfg_;
  PhotonicDotEngine engine_;
  FusedKernel kernel_;  ///< coefficient snapshot of engine_'s datapath
  std::unique_ptr<ThreadPool> pool_;

  // Per-engine scratch, reused across multiply calls so steady-state
  // products allocate nothing but their output (the documented
  // "not reentrant" contract is what makes this safe).  worker_ddots_
  // holds one device instance per worker slot, built once — Ddot
  // evaluation is const, so reuse cannot perturb numerics; worker
  // scratch stages the device-graph rails allocation-free per worker.
  std::vector<Ddot> worker_ddots_;
  mutable std::vector<DdotScratch> worker_scratch_;
  mutable Matrix norm_scratch_;
  mutable Matrix encode_scratch_;
  mutable std::vector<Tile> tile_scratch_;
  mutable std::vector<EventCounter> event_scratch_;
  mutable Matrix xsum_scratch_;               // guarded path: A row-stripe checksums
  mutable std::vector<double> xx_scratch_;    // SIMD tier: Σx² per A row
  mutable std::vector<double> yy_scratch_;    // SIMD tier: Σy² of unstaged operands
  mutable std::vector<TileCheck> check_scratch_;
  // Guarded path: raw tile row and column sums, one array_rows +
  // array_cols slot per worker.
  mutable std::vector<double> sum_scratch_;
};

}  // namespace pdac::ptc
