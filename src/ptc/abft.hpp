// abft.hpp — algorithm-based fault tolerance for the photonic GEMM path:
// checksum lanes, noise-calibrated tolerance bands, per-tile verdicts.
//
// Analog compute fails silently: a stuck MRR, dead receive PD or stepped
// TIA gain that strikes *between* scheduled self-tests corrupts every
// reduction it touches with no error flag anywhere (the hazard
// Al-Qadasi et al. flag for deep photonic pipelines, and that Mirage
// counters with digital residue checks around analog MACs).  The guard
// closes that window in-band, at tile granularity:
//
//   * every B column stripe of array width has one checksum column — the
//     digital sum of the stripe's golden columns, Σ_j y′_j, computed by
//     the controller: cached with PhotonicGemm's prepared operand, summed
//     per tile step by the lane executor as it decodes the stripe;
//   * every A operand gets one checksum row per array-height row stripe
//     (Σ_i x′_i), rebuilt with the per-product A-side encode pass;
//   * each H×W output tile is augmented with its checksum lane outputs:
//     row lane r_i = ⟨x′_i, Σ_j y′_j⟩ and column lane c_j = ⟨Σ_i x′_i,
//     y′_j⟩, and the digitized data outputs are summed against them —
//     Σ_j tile(i,j) must equal r_i and Σ_i tile(i,j) must equal c_j
//     within a tolerance band.
//
// Modeling note (DESIGN.md §12): the physical array runs the checksum
// lanes through one spare DDot row + column per tile step — the event
// charge below — while the *reference* side of the comparison is the
// controller's digital prediction from the operand amplitudes it
// calibrated.  The simulator computes the checksum-lane outputs in the
// amplitude domain (sums of encoded amplitudes, i.e. an ideal checksum
// modulator) rather than re-encoding a value-domain checksum column:
// encoding Σ_j b_j through the arccos-approximating P-DAC would fold the
// encoder's documented 8.5 % nonlinearity into every comparison and the
// band would have to swallow it, blinding the guard to exactly the
// faults it exists to catch.  With amplitude-domain checksums the
// fault-free residual is pure floating-point reassociation (≲ 1e−13
// relative) plus — when enabled — ADC readout quantization and detector
// noise, all of which guard_tolerance covers with provable headroom, so
// the false-positive rate on clean hardware is ~0 by construction while
// a latched modulator or dead PD bit lands orders of magnitude outside
// the band.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "common/matrix.hpp"
#include "ptc/event_counter.hpp"
#include "ptc/tile_scheduler.hpp"

namespace pdac::converters {
class Quantizer;
}

namespace pdac::ptc {

struct DotEngineConfig;

/// Guard knobs; aggregate-initializable so configs stay declarative.
struct GuardConfig {
  /// Master switch: off = the engine computes and charges nothing extra
  /// and results are bit-for-bit the unguarded ones.
  bool enabled{false};
  /// Per-dot readout noise sigma in raw (pre-rescale) dot units; the band
  /// takes 8σ of it (guard_tolerance).  Leave 0 for the deterministic
  /// simulator path; calibrate_guard_sigma() derives it from the ADC step
  /// and the measured PD noise floor when either is active.
  double noise_sigma{0.0};
  /// Hysteresis band for continuous drift (DESIGN.md §16): a residual in
  /// (tolerance, drift_band·tolerance] is *absorbed* — recorded as a
  /// drift observation (TileCheck::drift_ratio, GuardOutcome::
  /// drift_tiles, the faults::DriftTracker feed) but not counted as a
  /// mismatch, so no escalation rung fires for sub-accuracy wander.
  /// Only residuals beyond drift_band·tolerance (and NaNs, always) are
  /// excursions that mismatch.  The band is the explicit degraded-
  /// quality-vs-recovery-energy knob: output corruption it can admit is
  /// bounded by drift_band·tolerance — still reassociation-scale for
  /// the defaults, orders of magnitude under accuracy-relevant error.
  /// 1.0 (the default) collapses the band and reproduces the pre-drift
  /// verdicts bit-for-bit.  Values < 1 read as 1.
  double drift_band{1.0};
};

/// Tolerance band for one checksum comparison: `fan` digitized dot
/// products of length k summed against the digital reference, where
/// `mag` bounds the magnitude of the individual raw dot values involved.
/// Deterministic term: 64 · ε · k · (fan+1) · max(mag, 1), ~100× the
/// worst residual observed over millions of clean tiles (a stuck lane
/// overshoots it by 6+ orders of magnitude); noise term: 8 · noise_sigma
/// · √(fan+1), which keeps the clean false-positive probability below
/// ~1e−15 per comparison even for Gaussian-tailed noise.
[[nodiscard]] double guard_tolerance(const GuardConfig& cfg, std::size_t k, std::size_t fan,
                                     double mag);

/// Noise-calibrated default sigma for a dot engine: the ADC readout's
/// quantization noise (step/√12 in raw dot units, when adc_readout is
/// on; the step is readout_adc(dot, k)'s code step, full scale over
/// 2^(b−1) − 1 codes) plus the photodetector noise floor (per-chunk
/// sigma × √chunks, when pd_noise is active) for reductions of length
/// k.  Returns 0 for the fully deterministic path — the band then
/// collapses to the floating-point term and the comparison is exact to
/// reassociation.
[[nodiscard]] double calibrate_guard_sigma(const DotEngineConfig& dot, std::size_t k);

/// The one worst-residual rule of every verdict fold (tile lanes, product
/// outcomes, backend and fleet rollups): `residual` and its `tolerance`
/// replace the running worst when it is NaN or larger.  A NaN therefore
/// stays worst while finite residuals follow, and a later NaN brings its
/// own tolerance.
inline void fold_worst_residual(double residual, double tolerance, double& worst,
                                double& worst_tolerance) {
  if (std::isnan(residual) || residual > worst) {
    worst = residual;
    worst_tolerance = tolerance;
  }
}

/// A corrupted output element: global coordinates, raw (pre-rescale) error.
struct ErrorSite {
  std::size_t row{0};
  std::size_t col{0};
  double delta{0.0};
};

/// Verdict for one guarded tile.
struct TileCheck {
  std::size_t tile{0};        ///< tile index in scheduler order
  bool ok{true};              ///< every row/column comparison inside the band
  double worst_residual{0.0}; ///< largest |analog sum − digital reference|
  double tolerance{0.0};      ///< band at the worst comparison's site
  /// Elements repaired in place by single-error correction; a corrected
  /// tile reads ok (its residual stays recorded for diagnostics).
  std::size_t corrected{0};
  /// Worst residual/tolerance ratio of the comparisons that landed in
  /// the hysteresis band (GuardConfig::drift_band) — in (1, drift_band].
  /// 0 when every comparison was inside the base tolerance.  A tile with
  /// drift_ratio > 0 and ok == true was absorbed, not escalated.
  double drift_ratio{0.0};
  /// Set when the only excursions are one row lane and one column lane
  /// whose finite residuals agree: one corrupted element at their
  /// intersection.  Lane-class faults never present this signature.
  std::optional<ErrorSite> single_error;
};

/// The A side's row-stripe checksums: out.row(s) = Σ rows [s·stripe,
/// (s+1)·stripe) from exact zero in ascending row order (simd::add_rows).
void stripe_sums(const Matrix& rows, std::size_t stripe, Matrix& out);

/// The checksum verdict of one guarded tile, shared by every executor.
/// `rsum`/`csum` are the tile's raw analog row and column sums.  Row lane
/// i compares against ⟨a_golden.row(i), ysum⟩, where `ysum` is the tile's
/// column stripe Σ_j y′_j of golden B columns in ascending j; column lane
/// j against ⟨xsum, golden column j⟩, where `xsum` is the tile's golden A
/// stripe sum and b_golden.row(j − b_row0) is output column j's golden B
/// column.  PhotonicGemm passes its encodings (row 0 = column 0) and
/// cached stripe; faults::GuardedBackend the stripe it decoded through
/// the golden snapshot for this tile (row 0 = tile.col0) and its sum.
/// Each reference is one serial chain in ascending position; the chains
/// run side by side in SIMD lanes (simd::serial_dots), each with the
/// serial loop's exact bits, gathered in stack batches so nothing is
/// allocated per tile.  Each residual is then judged in lane order: clean
/// up to the tolerance, absorbed drift up to drift_band·tolerance, an
/// excursion beyond; a NaN is always an excursion.  When exactly one row
/// lane and one column lane are out of band and their residuals agree,
/// the verdict locates the corrupted element at their intersection
/// (TileCheck::single_error); correcting it is the caller's.
/// faults::GuardedBackend always corrects it, digitally from the
/// residual, with no escalation rung; PhotonicGemm never does, since its
/// cache repair depends on seeing the mismatch.
[[nodiscard]] TileCheck verify_tile(const GuardConfig& cfg, const Tile& tile, std::size_t t,
                                    std::span<const double> rsum, std::span<const double> csum,
                                    const Matrix& a_golden, std::span<const double> xsum,
                                    const Matrix& b_golden, std::size_t b_row0,
                                    std::span<const double> ysum);

/// Aggregated guard outcome of one product (GemmResult::guard).  The
/// checksum-lane charge is kept in its own counter so the data-path
/// events stay field-for-field identical to the unguarded product —
/// callers fold `checksum_events` into their energy accounting
/// explicitly (arch::event_energy prices it).
struct GuardOutcome {
  bool enabled{false};
  std::size_t tiles_checked{0};
  std::size_t mismatched_tiles{0};
  /// First mismatched tile in scheduler order (detection site);
  /// SIZE_MAX when every tile verified.
  std::size_t first_mismatch{static_cast<std::size_t>(-1)};
  double worst_residual{0.0};
  double worst_tolerance{0.0};
  /// Tiles repaired in place by single-error correction: detected, not
  /// counted as mismatched (no recovery rung ran).
  std::size_t tiles_corrected{0};
  /// Tiles whose final verdict absorbed at least one in-band drift
  /// comparison (TileCheck::drift_ratio > 0): watched, not escalated.
  std::size_t drift_tiles{0};
  /// Largest absorbed residual/tolerance ratio across the product.
  double worst_drift_ratio{0.0};
  /// Checksum-lane charge: per H×W tile step one extra A row and one
  /// extra B column are modulated (2·k events), the H+W checksum lane
  /// outputs are digitized and their DDots reduced; the lanes ride a
  /// spare array row/column inside the same tile step, so they add no
  /// occupancy cycles.
  EventCounter checksum_events;

  [[nodiscard]] bool clean() const { return mismatched_tiles == 0; }

  /// Fold one final tile verdict's absorbed drift into drift_tiles and
  /// worst_drift_ratio.
  void tally_drift(const TileCheck& check) {
    if (check.drift_ratio > 0.0) ++drift_tiles;
    worst_drift_ratio = std::max(worst_drift_ratio, check.drift_ratio);
  }
};

/// Checksum-lane events for one h×w tile of reduction length k chunked
/// over `chunks` WDM passes — the documented extra charge per tile.
[[nodiscard]] EventCounter checksum_lane_events(std::size_t h, std::size_t w, std::size_t k,
                                                std::size_t chunks);

/// checksum_lane_events summed over a guarded m×k by k×n product's
/// tiling on `grid` (sum_over_tiles).
[[nodiscard]] EventCounter checksum_product_events(std::size_t m, std::size_t k, std::size_t n,
                                                   const TileGrid& grid);

}  // namespace pdac::ptc
