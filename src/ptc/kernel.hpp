// kernel.hpp — fused amplitude-domain compute kernel for the GEMM hot
// path (DESIGN.md §13).
//
// The device graph (Ddot: phase shifter → coupler → balanced detectors)
// is the authoritative physical model, but its inner loop carries costs
// that exist only in software: WdmField construction per chunk, complex
// arithmetic on purely real operand amplitudes, and per-element dispatch
// through device objects.  P-DAC's own contribution is replacing exact
// per-element machinery with a cheap closed form; the same move applies
// here.  At construction the kernel snapshots the lanes' effective
// real-valued transfer — phase-shifter factor, coupler split (t, j·κ),
// PD responsivity and dark current — into one coefficient row
// every wavelength shares, then executes encode → couple → detect →
// differential readout for whole tiles as one pass over contiguous
// double arrays, every dot through one reduction (reduce_block).
//
// Bit-identity contract (fuzz-pinned by tests/test_kernel.cpp): the
// kernel replays the device graph's exact floating-point operation
// sequence — the naive complex-multiply expansions the library evaluates
// (including the ps_re·0.0-style terms that keep signed zeros honest),
// per-chunk intensity sums in ascending channel order, detector affine
// transfer, per-chunk differential accumulation, and the same ADC
// round-trip (readout_adc, read per tile row through the ADC's span form,
// one exact span quantizer, DESIGN.md §18) — so a tile's raw values equal
// PhotonicDotEngine::dot_preencoded's bit for bit at any thread count,
// and PhotonicGemm's outputs AND event counts equal the device-graph
// path.  Idle (past-the-ragged-edge) channels contribute exactly +0.0 to
// both photocurrents in the device graph, and every partial intensity
// sum is non-negative, so skipping them cannot change a single bit.
//
// Call contract: run_tile and run_tile_fast write the raw, post-ADC dots
// of any output rectangle — one tile, or a whole row panel (DESIGN.md §9)
// — into the output and stop there; the caller folds the finished
// rectangle (fold_tile, tile_scheduler.hpp: rescale plus the guard's
// tile sums), so both executors share one fold.  Each call builds one
// readout converter (and, on the SIMD tier, one quadratic form) and walks
// 4-column blocks outermost and rows innermost, so a multi-row call
// streams each block of B rows once.  Every output keeps its own dot and
// its own ADC round trip, so a rectangle's values do not depend on how
// the output is cut into calls.
//
// Energies: the SIMD tier reduces full optics to the closed quadratic
// form cxx·Σx² + cyy·Σy² + cxy·Σxy + dark.  Σx² depends on one A row and
// Σy² on one B column only, so the tile functions sum just Σxy and take
// both energies from the caller (spans indexed by absolute row/column);
// energy() is the one rule that sums them, fresh or resumed from the
// state an earlier length left (reduction-axis appends, DESIGN.md §17).
// PhotonicGemm sums Σx² once per A row per product and caches Σy² in the
// PreparedOperand.
//
// Staleness: a kernel is a snapshot.  PhotonicGemm's engine is immutable
// after construction, so its kernel never goes stale.  The faults-layer
// lane executor snapshots a nominal amplitude-domain chain (full optics
// and ADC off), which has no lane state to go stale; its lanes' encodes,
// which do mutate, live in coefficient tables keyed on the LaneBank
// epoch (faults/lane_table.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/matrix.hpp"
#include "ptc/ddot.hpp"
#include "ptc/dot_engine.hpp"
#include "ptc/event_counter.hpp"
#include "ptc/tile_scheduler.hpp"

namespace pdac::ptc {

/// Effective real-amplitude transfer of one DDot lane, exactly as the
/// device graph evaluates it on (x, 0)/(y, 0) operand amplitudes.
struct LaneTransfer {
  double ps_re{};  ///< phase-shifter factor, real part
  double ps_im{};  ///< phase-shifter factor, imaginary part
  double t{};      ///< coupler transmission
  double jk_re{};  ///< j·κ as the coupler evaluates it, real part
  double jk_im{};  ///< j·κ, imaginary part (= κ)
};

/// Affine transfer of the balanced detector pair: I± = gain±·ΣI + dark±.
struct DetectorTransfer {
  double gain_plus{1.0};
  double dark_plus{0.0};
  double gain_minus{1.0};
  double dark_minus{0.0};
};

class FusedKernel {
 public:
  /// Snapshot an engine's whole datapath: device transfers from its Ddot,
  /// packing and ADC behavior from its config.
  explicit FusedKernel(const PhotonicDotEngine& engine);

  /// Snapshot a standalone device chain (unit tests, custom devices).
  FusedKernel(const Ddot& ddot, const DotEngineConfig& cfg);

  /// One output rectangle (a tile or a row panel) in a single call: every
  /// (i, j) dot of ae row i with be row j − be_row0, written raw into
  /// c(i, j).  PhotonicGemm passes its whole prepared operand (be_row0 0);
  /// the lane executor the tile's decoded column stripe (be_row0 =
  /// tile.col0).
  /// With the ADC on, each row's raw values are read out through one
  /// span ADC call, bit-identical to sampling each output (both tile
  /// functions).  The caller folds the finished rectangle (fold_tile).
  /// The tile functions charge no events: a tile step's charge is the
  /// closed form ptc::tile_step_events over the caller's packing.
  /// Callers: PhotonicGemm::multiply_prepared and the faults-layer lane
  /// executor (GuardedBackend), which adds its pending upsets to the raw
  /// values before the fold.
  void run_tile(const Tile& tile, const Matrix& ae, const Matrix& be, Matrix& c,
                std::size_t be_row0 = 0) const;

  /// SIMD fast tier of run_tile (ExecutionPath::kKernelSimd): the same
  /// raw-value contract, but tolerance-banded instead of bit-exact: the
  /// reduction is reassociated through common/simd.hpp blocking and, under
  /// full optics, the per-element physics is collapsed into its closed
  /// quadratic form cxx·Σx² + cyy·Σy² + cxy·Σxy + dark (see the derivation
  /// in kernel.cpp), so raw values differ from the scalar tier by
  /// O(ε·k·|x||y|) — inside the ABFT guard band that multiply_prepared
  /// applies unchanged.  The tile sums only Σxy; the energies are the
  /// caller's, indexed by ABSOLUTE row and column: `xx[i]` =
  /// energy(ae.row(i) over k) for every tile row i and `yy[j]` =
  /// energy(be.row(j − be_row0) over k) for every tile column j.  PhotonicGemm sums
  /// Σx² once per A row per product and reads Σy² from the prepared
  /// operand, where it was summed once at prepare/append.  With full optics
  /// on, both spans must cover the tile (PDAC_REQUIRE); off, they are
  /// never read (the lane executor passes empty spans) and each raw value
  /// is simd::dot(x, y, k), whatever the tile width (simd::dot4 is four dot
  /// calls, bit for bit).
  void run_tile_fast(const Tile& tile, const Matrix& ae, const Matrix& be,
                     std::span<const double> xx, std::span<const double> yy, Matrix& c,
                     std::size_t be_row0 = 0) const;

  /// Energy Σ_p y_p² of one encoded operand row, by the SIMD tier's rule
  /// (simd::dot_self): the quadratic form's Σx²/Σy² term for run_tile_fast.
  [[nodiscard]] double energy(std::span<const double> y) const;

  /// energy(y) resumed from an earlier length m ≤ y.size(): `state`
  /// (simd::kDotSelfState doubles) holds what the call at length m left
  /// (zeros for m = 0) and is advanced to y.size().  Equals energy(y) bit
  /// for bit, reading only y's last m mod 8 + (y.size() − m) elements.
  [[nodiscard]] double energy(std::span<const double> y, std::size_t m,
                              std::span<double> state) const;

  [[nodiscard]] std::size_t wavelengths() const { return cfg_.wavelengths; }
  [[nodiscard]] const LaneTransfer& lane() const { return lane_; }
  [[nodiscard]] const DetectorTransfer& detector() const { return det_; }

 private:
  /// Full-optics closed-form coefficients at reduction length k.
  struct QuadraticForm {
    double cxx{};
    double cyy{};
    double cxy{};
    double dark{};
  };
  [[nodiscard]] QuadraticForm quadratic_form(std::size_t k) const;

  /// The one coefficient row every wavelength shares: chunk position i
  /// rides channel i of identical devices, as in PhotonicDotEngine's loop.
  LaneTransfer lane_{};
  DetectorTransfer det_{};
  DotEngineConfig cfg_;  ///< optics and readout switches
};

}  // namespace pdac::ptc
