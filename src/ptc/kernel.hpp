// kernel.hpp — fused amplitude-domain compute kernel for the GEMM hot
// path (DESIGN.md §13).
//
// The device graph (Ddot: phase shifter → coupler → balanced detectors)
// is the authoritative physical model, but its inner loop carries costs
// that exist only in software: WdmField construction per chunk, complex
// arithmetic on purely real operand amplitudes, and per-element dispatch
// through device objects.  P-DAC's own contribution is replacing exact
// per-element machinery with a cheap closed form; the same move applies
// here.  At construction the kernel snapshots each lane's effective
// real-valued transfer — phase-shifter factor, coupler split (t, j·κ),
// PD responsivity×scale and dark current, with fenced lanes dropped from
// the packing — into a flat per-lane coefficient table, then executes
// encode → couple → detect → differential readout for whole tiles as one
// pass over contiguous double arrays.
//
// Bit-identity contract (fuzz-pinned by tests/test_kernel.cpp): the
// kernel replays the device graph's exact floating-point operation
// sequence — the naive complex-multiply expansions the library evaluates
// (including the ps_re·0.0-style terms that keep signed zeros honest),
// per-chunk intensity sums in ascending channel order, detector affine
// transfer, per-chunk differential accumulation, and the same ADC
// round-trip (the tiles read each row out through the ADC's span form,
// one exact span quantizer, DESIGN.md §18) — so outputs AND event counts
// equal the device-graph path
// bit for bit at any thread count, clean or degraded.  Inactive (fenced
// or past-the-ragged-edge) channels contribute exactly +0.0 to both
// photocurrents in the device graph, and every partial intensity sum is
// non-negative, so skipping them cannot change a single bit.
//
// Energies: the fast tiers reduce full optics to the closed quadratic
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
#include <vector>

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
  /// lane packing from its lane mask, ADC behavior from its config.
  explicit FusedKernel(const PhotonicDotEngine& engine);

  /// Snapshot a standalone device chain (unit tests, custom devices).
  FusedKernel(const Ddot& ddot, const DotEngineConfig& cfg);

  /// Fused dot over pre-encoded amplitudes; bit-identical to
  /// PhotonicDotEngine::dot_preencoded, event charges included
  /// (detection/ddot per chunk, macs per element — modulation, ADC
  /// samples and cycles stay the caller's tile-level charge).
  [[nodiscard]] double dot(std::span<const double> xe, std::span<const double> ye,
                           EventCounter* ev = nullptr) const;

  /// One whole output tile in a single pass: every (i, j) dot of
  /// ae[tile rows] × be[tile cols], rescaled into `c`.  With the ADC on,
  /// each tile row's raw values are read out through one span ADC call,
  /// bit-identical to sampling each output (all three tile functions).
  /// When `rsum`/`csum` are non-null (ABFT-guarded products) the raw
  /// post-ADC dot values are accumulated per tile row/column in the same
  /// order as the device-graph loop.  The tile functions charge no
  /// events: a tile step's charge is the closed form ptc::tile_step_events
  /// over the caller's packing.  Callers: PhotonicGemm::multiply_prepared
  /// and the faults-layer lane executor (GuardedBackend), which runs the
  /// tile at rescale 1.0 with no tile sums and folds upsets, rescale and
  /// sums itself.
  void run_tile(const Tile& tile, const Matrix& ae, const Matrix& be, double rescale,
                Matrix& c, double* rsum = nullptr, double* csum = nullptr) const;

  /// SIMD fast tier of run_tile (ExecutionPath::kKernelSimd).  Same
  /// rsum/csum accumulation order — but tolerance-banded instead of
  /// bit-exact: the reduction is reassociated through common/simd.hpp
  /// blocking and, under full optics, the per-element physics is collapsed
  /// into its closed quadratic form cxx·Σx² + cyy·Σy² + cxy·Σxy + dark (see
  /// the derivation in kernel.cpp), so raw values differ from the scalar
  /// tier by O(ε·k·|x||y|) — inside the ABFT guard band that
  /// multiply_prepared applies unchanged.  The tile sums only Σxy; the
  /// energies are the caller's, indexed by ABSOLUTE row and column:
  /// `xx[i]` = energy(ae.row(i) over k) for every tile row i and `yy[j]` =
  /// energy(be.row(j) over k) for every tile column j.  PhotonicGemm sums
  /// Σx² once per A row per product and reads Σy² from the prepared
  /// operand, where it was summed once at prepare/append.  With full optics
  /// on, both spans must cover the tile (PDAC_REQUIRE); off, they are
  /// never read (the lane executor passes empty spans) and each raw value
  /// is simd::dot(x, y, k), whatever the tile width (simd::dot4 is four dot
  /// calls, bit for bit).
  void run_tile_fast(const Tile& tile, const Matrix& ae, const Matrix& be,
                     std::span<const double> xx, std::span<const double> yy, double rescale,
                     Matrix& c, double* rsum = nullptr, double* csum = nullptr) const;

  /// Integer tier of run_tile (ExecutionPath::kKernelQuant, DESIGN.md
  /// §15).  Operands are int16 quantizer codes; valid only when
  /// quant_ready() — the engine's encode LUT lies bitwise on the
  /// quantizer grid, so an encoded amplitude IS code/max_code and every
  /// Σx², Σy², Σxy of the quadratic form is an EXACT integer sum
  /// (common/simd.hpp dot_i16 family, int16×int16 → int64).  The scale
  /// 1/max_code² and the dark-current term are applied once in double at
  /// readout, so each raw value carries a single rounding instead of the
  /// double tiers' per-element chains — the same O(ε·k) reassociation
  /// family the guard band absorbs.  `xx`/`yy` follow run_tile_fast's
  /// absolute-index contract, summed by energy(codes).  ADC round-trip and
  /// rsum/csum order are identical to run_tile; the integer sums
  /// themselves are ISA-independent (exact), so this tier's raw values are
  /// identical bits on every machine.
  void run_tile_quant(const Tile& tile, const CodeMatrix& aq, const CodeMatrix& bq,
                      std::span<const double> xx, std::span<const double> yy, double rescale,
                      Matrix& c, double* rsum = nullptr, double* csum = nullptr) const;

  /// Energy Σ_p y_p² of one encoded operand row, by the SIMD tier's rule
  /// (simd::dot_self): the quadratic form's Σx²/Σy² term for run_tile_fast.
  [[nodiscard]] double energy(std::span<const double> y) const;

  /// The integer tier's energy of one code row: the exact Σ_p c_p² over ℤ
  /// divided once by max_code² — run_tile_quant's Σx²/Σy² term.  Its last
  /// bits can differ from energy() of the decoded amplitudes, so a tier
  /// never reads energies summed by the other's rule.
  [[nodiscard]] double energy(std::span<const std::int16_t> codes) const;

  /// energy(y) resumed from an earlier length m ≤ y.size(): `state`
  /// (simd::kDotSelfState doubles) holds what the call at length m left
  /// (zeros for m = 0) and is advanced to y.size().  Equals energy(y) bit
  /// for bit, reading only y's last m mod 8 + (y.size() − m) elements.
  [[nodiscard]] double energy(std::span<const double> y, std::size_t m,
                              std::span<double> state) const;

  /// energy(codes) resumed: `sum` holds the exact Σc² over codes[0, m) and
  /// gains the rest.  Equals energy(codes) bit for bit, since integer sums
  /// are associative.
  [[nodiscard]] double energy(std::span<const std::int16_t> codes, std::size_t m,
                              std::int64_t& sum) const;

  /// True when run_tile_quant is usable: the kernel was snapshotted from
  /// an engine whose encode LUT is exactly the quantizer grid (e.g. a
  /// core::BitTrueDacDriver engine).  Off-grid drivers (ideal DAC,
  /// P-DAC) leave this false and callers fall back to the double tiers.
  [[nodiscard]] bool quant_ready() const { return quant_ready_; }

  [[nodiscard]] std::size_t active_wavelengths() const { return lanes_.size(); }
  [[nodiscard]] const std::vector<LaneTransfer>& lane_table() const { return lanes_; }
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
  [[nodiscard]] double reduce(std::span<const double> xe, std::span<const double> ye) const;
  /// The readout ADC at reduction length n (full scale = n when auto).
  [[nodiscard]] converters::ElectricalAdc make_adc(std::size_t n) const;
  [[nodiscard]] double apply_adc(double acc, std::size_t n) const;
  /// Read out one tile row in place: `raw` holds the row's raw dot values
  /// (in the output matrix); the span ADC when on, then each value becomes
  /// value · rescale, and the post-ADC values are folded into *rsum and
  /// csum[0..) when non-null, in ascending column order.
  void readout(const converters::ElectricalAdc& adc, std::span<double> raw, double rescale,
               double* rsum, double* csum) const;

  /// One coefficient row per active (un-fenced) wavelength, in packing
  /// order — the flat table the inner loop streams.
  std::vector<LaneTransfer> lanes_;
  DetectorTransfer det_{};
  bool full_optics_{false};
  bool adc_{false};
  int adc_bits_{8};
  double adc_full_scale_{0.0};
  /// Integer-tier state: certified on-grid encode LUT + the operand
  /// quantizer's max code (code → amplitude is code/max_code_).
  bool quant_ready_{false};
  std::int32_t max_code_{127};
};

}  // namespace pdac::ptc
