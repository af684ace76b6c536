#include "ptc/kernel.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <type_traits>

#include "common/require.hpp"
#include "common/simd.hpp"
#include "converters/electrical_adc.hpp"

namespace pdac::ptc {

namespace {

// Reduces the NB dots of ae row `xe` against be rows j..j+NB in one pass:
// the kernel's one reduction, NB = 4 in the blocked main loop and 1 for the
// tail.  Each dot's floating-point sequence is its own — the dots are
// merely interleaved, never mixed — so every NB gives the same bits per
// dot.  The payoff is ILP: a single dot is latency-bound on its two serial
// accumulation chains (sp/sm), while NB dots give the core 2·NB
// independent chains plus one load of x per NB dots.  Every wavelength
// shares the one coefficient row `ln`.
template <std::size_t NB>
void reduce_block(const LaneTransfer& ln, std::size_t nl, const DetectorTransfer& det,
                  bool full_optics, const double* xe, const Matrix& be, std::size_t j,
                  std::size_t n, double* out) {
  const double* ys[NB];
  for (std::size_t b = 0; b < NB; ++b) ys[b] = be.row(j + b).data();
  if (!full_optics) {
    // Fast-path engines reduce encoded amplitudes directly; the chunked
    // loop flattens to one pass (chunk boundaries do not reassociate).
    double acc[NB] = {};
    for (std::size_t p = 0; p < n; ++p) {
      const double x = xe[p];
      for (std::size_t b = 0; b < NB; ++b) acc[b] += x * ys[b][p];
    }
    for (std::size_t b = 0; b < NB; ++b) out[b] = acc[b];
    return;
  }
  double acc[NB] = {};
  for (std::size_t base = 0; base < n; base += nl) {
    const std::size_t len = std::min(nl, n - base);
    double sp[NB] = {};
    double sm[NB] = {};
    for (std::size_t i = 0; i < len; ++i) {
      const double x = xe[base + i];
      // The device graph expands the full complex products on (x + 0j)/
      // (y + 0j) operands; this loop drops every term that is an exact
      // IEEE zero there.  That is bit-preserving, not approximate:
      //   * jk_re = 0.0·κ is a literal signed zero (couple() builds j·κ
      //     as Complex{0,1}·κ), and every dropped term is `a·(±0)` or
      //     `(±0) + b` / `(±0) − b`, which leave any non-zero operand's
      //     bits untouched (q ± 0 == q, 0 − q == −q);
      //   * the only values that CAN differ are the signs of zeros, and
      //     every rail amplitude is consumed by |E|² below, where
      //     (±0)² == +0 — so the chunk sums, and hence the dot, match
      //     the device graph bit for bit;
      //   * operand amplitudes are encode-LUT outputs, hence finite —
      //     no NaN/Inf whose propagation a dropped term could alter.
      const double tx = ln.t * x;
      const double kx = ln.jk_im * x;
      for (std::size_t b = 0; b < NB; ++b) {
        const double y = ys[b][base + i];
        const double lr = ln.ps_re * y;
        const double li = ln.ps_im * y;
        // Coupler: upper' = t·x − κ·li + j·(κ·lr), lower' = t·lr + j·(κ·x + t·li).
        const double ur = tx - ln.jk_im * li;
        const double ui = ln.jk_im * lr;
        const double wr = ln.t * lr;
        const double wi = kx + ln.t * li;
        // Balanced detection integrates I = Σ ½|E|² in ascending channel
        // order; idle channels contribute exactly +0.0 and are skipped.
        sp[b] += 0.5 * (ur * ur + ui * ui);
        sm[b] += 0.5 * (wr * wr + wi * wi);
      }
    }
    for (std::size_t b = 0; b < NB; ++b) {
      acc[b] += (det.gain_plus * sp[b] + det.dark_plus) -
                (det.gain_minus * sm[b] + det.dark_minus);
    }
  }
  for (std::size_t b = 0; b < NB; ++b) out[b] = acc[b];
}

/// Column block width of both kernel tiers: reduce_block<4> and simd::dot4.
constexpr std::size_t kColumnBlock = 4;

/// Walks `tile`'s columns in blocks, outermost: body(j, width) for each
/// kColumnBlock-wide block from tile.col0 on, then for each remaining
/// column alone, with `width` a std::integral_constant.  The body runs its
/// block for every tile row, so a multi-row call streams each block of B
/// rows once instead of once per row.
template <class Body>
void for_each_column_block(const Tile& tile, Body&& body) {
  const std::size_t col_end = tile.col0 + tile.cols;
  std::size_t j = tile.col0;
  for (; j + kColumnBlock <= col_end; j += kColumnBlock) {
    body(j, std::integral_constant<std::size_t, kColumnBlock>{});
  }
  for (; j < col_end; ++j) body(j, std::integral_constant<std::size_t, 1>{});
}

/// One span ADC call per tile row over its raw values, bit-identical to
/// sampling each value.
void read_out(const converters::ElectricalAdc& adc, const Tile& tile, Matrix& c) {
  for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
    const std::span<double> raw = c.row(i).subspan(tile.col0, tile.cols);
    adc.sample_to_voltage(raw, raw);
  }
}

}  // namespace

FusedKernel::FusedKernel(const PhotonicDotEngine& engine)
    : FusedKernel(engine.ddot(), engine.config()) {}

FusedKernel::FusedKernel(const Ddot& ddot, const DotEngineConfig& cfg) : cfg_(cfg) {
  PDAC_REQUIRE(cfg.wavelengths >= 1, "FusedKernel: at least one wavelength");

  // The j·κ factor is snapshotted through the same expression the coupler
  // evaluates (Complex{0,1} · κ), so even its signed-zero real part is
  // reproduced exactly.
  const photonics::Complex f = ddot.phase_shifter().factor();
  const photonics::Complex jk = photonics::Complex{0.0, 1.0} * ddot.coupler().coupling();
  lane_.ps_re = f.real();
  lane_.ps_im = f.imag();
  lane_.t = ddot.coupler().transmission();
  lane_.jk_re = jk.real();
  lane_.jk_im = jk.imag();

  det_.gain_plus = ddot.pd_plus().effective_responsivity();
  det_.dark_plus = ddot.pd_plus().config().dark_current;
  det_.gain_minus = ddot.pd_minus().effective_responsivity();
  det_.dark_minus = ddot.pd_minus().config().dark_current;
}

void FusedKernel::run_tile(const Tile& tile, const Matrix& ae, const Matrix& be, Matrix& c,
                           std::size_t be_row0) const {
  const std::size_t k = ae.cols();
  // >=: prepared operands may pad the reduction axis with physical
  // column capacity (PreparedOperand shape contract); every loop here
  // is bounded by the A-side k, so padding is never read.
  PDAC_REQUIRE(be.cols() >= k, "FusedKernel: operand reduction lengths must agree");
  // The reduction length is fixed across the call, so the ADC (whose
  // behavior depends only on bits and full scale) is built once instead
  // of per dot — identical round-trip, hoisted construction.
  const std::optional<converters::ElectricalAdc> adc = readout_adc(cfg_, k);
  const bool optics = cfg_.use_full_optics;
  for_each_column_block(tile, [&](std::size_t j, auto width) {
    for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
      reduce_block<decltype(width)::value>(lane_, cfg_.wavelengths, det_, optics,
                                           ae.row(i).data(), be, j - be_row0, k,
                                           c.row(i).data() + j);
    }
  });
  if (adc) read_out(*adc, tile, c);
}

FusedKernel::QuadraticForm FusedKernel::quadratic_form(std::size_t k) const {
  // Closed quadratic form of the full-optics physics.  Every wavelength
  // shares the one coefficient row, so the per-element rail intensities
  // collapse algebraically:
  //
  //   sp_e = ½[t²·x² + κ²·|f|²·y² − 2tκ·ps_im·x·y]
  //   sm_e = ½[κ²·x² + t²·|f|²·y² + 2tκ·ps_im·x·y]      |f|² = ps_re²+ps_im²
  //
  //   g₊·Σsp − g₋·Σsm + chunks·(d₊ − d₋)
  //     = cxx·Σx² + cyy·Σy² + cxy·Σxy + dark
  //
  // with cxx = ½(g₊t² − g₋κ²), cyy = ½|f|²(g₊κ² − g₋t²),
  // cxy = −tκ·ps_im·(g₊ + g₋), dark = chunks·(d₊ − d₋).  The whole tile
  // then reduces to plain dot products: Σxy per output, plus the row and
  // column energies Σx² and Σy², which depend on one operand row each and
  // are therefore summed by the caller once (see energy()), not per tile.
  const LaneTransfer& ln = lane_;
  const double f2 = ln.ps_re * ln.ps_re + ln.ps_im * ln.ps_im;
  const double t2 = ln.t * ln.t;
  const double k2 = ln.jk_im * ln.jk_im;
  const std::uint64_t chunks = (k + cfg_.wavelengths - 1) / cfg_.wavelengths;
  return {.cxx = 0.5 * (det_.gain_plus * t2 - det_.gain_minus * k2),
          .cyy = 0.5 * f2 * (det_.gain_plus * k2 - det_.gain_minus * t2),
          .cxy = -ln.t * ln.jk_im * ln.ps_im * (det_.gain_plus + det_.gain_minus),
          .dark = static_cast<double>(chunks) * (det_.dark_plus - det_.dark_minus)};
}

double FusedKernel::energy(std::span<const double> y) const {
  return simd::dot_self(y.data(), y.size());
}

double FusedKernel::energy(std::span<const double> y, std::size_t m,
                           std::span<double> state) const {
  PDAC_REQUIRE(m <= y.size() && state.size() == simd::kDotSelfState,
               "FusedKernel: energy resume state must cover a prefix");
  return simd::dot_self_resume(y.data(), m, y.size(), state.data());
}

void FusedKernel::run_tile_fast(const Tile& tile, const Matrix& ae, const Matrix& be,
                                std::span<const double> xx, std::span<const double> yy,
                                Matrix& c, std::size_t be_row0) const {
  const std::size_t k = ae.cols();
  // >=: prepared operands may pad the reduction axis with physical
  // column capacity (PreparedOperand shape contract); every loop here
  // is bounded by the A-side k, so padding is never read.
  PDAC_REQUIRE(be.cols() >= k, "FusedKernel: operand reduction lengths must agree");
  const bool optics = cfg_.use_full_optics;
  PDAC_REQUIRE(!optics || (xx.size() >= tile.row0 + tile.rows &&
                           yy.size() >= tile.col0 + tile.cols),
               "FusedKernel: full optics needs row and column energies covering the tile");
  const std::optional<converters::ElectricalAdc> adc = readout_adc(cfg_, k);
  // Full optics: the closed form over the caller's energies, indexed by
  // absolute row i and column j; off, each raw value is simd::dot(x, y, k).
  const QuadraticForm q = optics ? quadratic_form(k) : QuadraticForm{};
  for_each_column_block(tile, [&](std::size_t j, auto width) {
    constexpr std::size_t nb = decltype(width)::value;
    const double* ys[nb];
    for (std::size_t b = 0; b < nb; ++b) ys[b] = be.row(j - be_row0 + b).data();
    for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
      const double* const x = ae.row(i).data();
      double sxy[nb];
      if constexpr (nb == kColumnBlock) {
        simd::dot4(x, ys, k, sxy);
      } else {
        sxy[0] = simd::dot(x, ys[0], k);
      }
      double* const raw = c.row(i).data() + j;
      for (std::size_t b = 0; b < nb; ++b) {
        raw[b] = optics ? q.cxx * xx[i] + q.cyy * yy[j + b] + q.cxy * sxy[b] + q.dark : sxy[b];
      }
    }
  });
  if (adc) read_out(*adc, tile, c);
}

}  // namespace pdac::ptc
