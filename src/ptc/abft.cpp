#include "ptc/abft.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "common/require.hpp"
#include "common/simd.hpp"
#include "ptc/dot_engine.hpp"
#include "ptc/noise_analysis.hpp"

namespace pdac::ptc {

// The band's two multipliers (guard_tolerance): on the machine-epsilon
// reassociation bound, and on GuardConfig::noise_sigma.
constexpr double kFpSlack = 64.0;
constexpr double kNoiseZscore = 8.0;

double guard_tolerance(const GuardConfig& cfg, std::size_t k, std::size_t fan, double mag) {
  PDAC_REQUIRE(cfg.noise_sigma >= 0.0, "guard_tolerance: noise sigma must be non-negative");
  const double terms = static_cast<double>(fan + 1);
  const double fp = kFpSlack * DBL_EPSILON * static_cast<double>(k) * terms *
                    std::max(std::abs(mag), 1.0);
  const double noise = kNoiseZscore * cfg.noise_sigma * std::sqrt(terms);
  return fp + noise;
}

double calibrate_guard_sigma(const DotEngineConfig& dot, std::size_t k) {
  double variance = 0.0;

  if (const std::optional<converters::ElectricalAdc> adc = readout_adc(dot, k)) {
    // The readout ADC rounds each raw dot to its code step (full scale
    // over 2^(b−1) − 1 codes); the quantization noise of a rounding
    // converter is step/√12.
    const double step = adc->lsb();
    variance += step * step / 12.0;
  }

  const auto& pd = dot.pd_noise;
  if (pd.enabled && (pd.thermal_noise_std > 0.0 || pd.shot_noise_scale > 0.0)) {
    // Measure the per-chunk detection noise the way the SNR bench does,
    // then stretch it over the ⌈k/λ⌉ chunks a length-k reduction takes.
    SnrConfig snr;
    snr.wavelengths = dot.wavelengths;
    snr.noise = pd;
    const SnrReport rep = measure_ddot_snr(snr);
    const std::size_t nl = std::max<std::size_t>(dot.wavelengths, 1);
    const double chunks = std::ceil(static_cast<double>(std::max<std::size_t>(k, 1)) /
                                    static_cast<double>(nl));
    variance += rep.noise_rms * rep.noise_rms * chunks;
  }

  return std::sqrt(variance);
}

void stripe_sums(const Matrix& rows, std::size_t stripe, Matrix& out) {
  out.resize((rows.rows() + stripe - 1) / stripe, rows.cols());
  std::fill(out.data().begin(), out.data().end(), 0.0);
  for (std::size_t s = 0; s < out.rows(); ++s) {
    const std::size_t count = std::min(rows.rows() - s * stripe, stripe);
    simd::add_rows(rows.row(s * stripe).data(), rows.cols(), count, rows.cols(),
                   out.row(s).data());
  }
}

TileCheck verify_tile(const GuardConfig& cfg, const Tile& tile, std::size_t t,
                      std::span<const double> rsum, std::span<const double> csum,
                      const Matrix& a_golden, std::span<const double> xsum,
                      const Matrix& b_golden, std::size_t b_row0, std::span<const double> ysum) {
  const std::size_t k = a_golden.cols();
  TileCheck check;
  check.tile = t;
  // The deterministic band scales with the raw dot magnitudes, which
  // |x′·y′| ≤ 1 per element bounds by k.
  const double mag = static_cast<double>(k);
  const double tol_row = guard_tolerance(cfg, k, tile.cols, mag);
  const double tol_col = guard_tolerance(cfg, k, tile.rows, mag);
  // Hysteresis band (DESIGN.md §16): band == 1 collapses the drift zone.
  // Returns true on an excursion.
  const double band = std::max(1.0, cfg.drift_band);
  const auto excursion = [&check, band](double res, double tol) {
    const double r = std::abs(res);
    fold_worst_residual(r, tol, check.worst_residual, check.tolerance);
    if (std::isnan(r) || r > band * tol) {
      check.ok = false;
      return true;
    }
    if (r > tol) check.drift_ratio = std::max(check.drift_ratio, r / tol);
    return false;
  };
  // Out-of-band lanes locate the single-error site.  "Bad" is judged at
  // the outer band edge, so lanes drifting inside the band cannot blur a
  // hard strike's signature.
  std::size_t bad_rows = 0, bad_cols = 0;
  ErrorSite site;
  double col_delta = 0.0;
  // Lanes in verdict order: the row lanes, Σ_j tile(i,j) vs ⟨golden x′_i,
  // golden Σ_j y′_j⟩, then the column lanes, Σ_i tile(i,j) vs
  // ⟨golden Σ_i x′_i, golden y′_j⟩.  Each reference is one serial chain in
  // ascending p; simd::serial_dots runs a batch of them side by side with
  // each chain's exact bits, and the residuals are then judged in order.
  const std::size_t row_lanes = tile.rows;
  const std::size_t lanes = row_lanes + tile.cols;
  PDAC_ASSERT(ysum.size() >= k && tile.col0 >= b_row0);
  constexpr std::size_t kBatch = 32;
  const double* xs[kBatch] = {};
  const double* ys[kBatch] = {};
  double refs[kBatch] = {};
  for (std::size_t l0 = 0; l0 < lanes; l0 += kBatch) {
    const std::size_t count = std::min(kBatch, lanes - l0);
    for (std::size_t l = 0; l < count; ++l) {
      const std::size_t lane = l0 + l;
      const bool row = lane < row_lanes;
      xs[l] = row ? a_golden.row(tile.row0 + lane).data() : xsum.data();
      ys[l] = row ? ysum.data() : b_golden.row(tile.col0 - b_row0 + lane - row_lanes).data();
    }
    simd::serial_dots(xs, ys, count, k, refs);
    for (std::size_t l = 0; l < count; ++l) {
      const std::size_t lane = l0 + l;
      if (lane < row_lanes) {
        const double res = rsum[lane] - refs[l];
        if (excursion(res, tol_row)) {
          ++bad_rows;
          site.row = tile.row0 + lane;
          site.delta = res;
        }
      } else {
        const std::size_t c = lane - row_lanes;
        const double res = csum[c] - refs[l];
        if (excursion(res, tol_col)) {
          ++bad_cols;
          site.col = tile.col0 + c;
          col_delta = res;
        }
      }
    }
  }
  // Both residuals estimate the same raw accumulator error.  The
  // agreement window widens with the band: a strike on lanes drifting
  // mid-band sees each delta carry up to band·tol of absorbed wander.
  if (bad_rows == 1 && bad_cols == 1 && std::isfinite(site.delta) && std::isfinite(col_delta) &&
      std::abs(site.delta - col_delta) <= band * (tol_row + tol_col)) {
    check.single_error = site;
  }
  return check;
}

EventCounter checksum_lane_events(std::size_t h, std::size_t w, std::size_t k,
                                  std::size_t chunks) {
  EventCounter ev;
  // One extra A row and one extra B column modulated per tile step; the
  // h + w checksum outputs are detected, reduced and digitized like data
  // lanes.  The spare row/column computes inside the same tile step, so
  // occupancy cycles are unchanged.
  const std::size_t lanes = h + w;
  ev.modulation_events = 2 * k;
  ev.adc_events = lanes;
  ev.ddot_ops = lanes * chunks;
  ev.detection_events = lanes * chunks;
  ev.macs = lanes * k;
  ev.cycles = 0;
  return ev;
}

EventCounter checksum_product_events(std::size_t m, std::size_t k, std::size_t n,
                                     const TileGrid& grid) {
  const std::size_t chunks = (k + grid.lanes - 1) / grid.lanes;
  return sum_over_tiles(m, n, grid, [&](std::size_t h, std::size_t w) {
    return checksum_lane_events(h, w, k, chunks);
  });
}

}  // namespace pdac::ptc
