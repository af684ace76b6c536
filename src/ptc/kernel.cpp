#include "ptc/kernel.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "common/simd.hpp"
#include "converters/electrical_adc.hpp"

namespace pdac::ptc {

namespace {

// Reduces NB independent dots against a shared x row in one pass.  Each
// dot's own floating-point sequence is exactly the one FusedKernel::reduce
// performs — the dots are merely interleaved, never mixed — so the results
// are bit-identical to NB separate reduce() calls.  The payoff is ILP: a
// single dot is latency-bound on its two serial accumulation chains
// (sum_p/sum_m), while NB dots give the core 2·NB independent chains plus
// one load of x and the lane coefficients per NB dots.
template <std::size_t NB>
void reduce_block(const LaneTransfer* lanes, std::size_t nl, const DetectorTransfer& det,
                  bool full_optics, const double* xe, const double* const* ys, std::size_t n,
                  double* out) {
  if (!full_optics) {
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
      const LaneTransfer& ln = lanes[i];
      const double x = xe[base + i];
      const double tx = ln.t * x;
      const double kx = ln.jk_im * x;
      for (std::size_t b = 0; b < NB; ++b) {
        const double y = ys[b][base + i];
        const double lr = ln.ps_re * y;
        const double li = ln.ps_im * y;
        const double ur = tx - ln.jk_im * li;
        const double ui = ln.jk_im * lr;
        const double wr = ln.t * lr;
        const double wi = kx + ln.t * li;
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

}  // namespace

FusedKernel::FusedKernel(const PhotonicDotEngine& engine)
    : FusedKernel(engine.ddot(), engine.config()) {}

FusedKernel::FusedKernel(const Ddot& ddot, const DotEngineConfig& cfg) {
  PDAC_REQUIRE(cfg.wavelengths >= 1, "FusedKernel: at least one wavelength");
  PDAC_REQUIRE(cfg.lane_mask.empty() || cfg.lane_mask.size() == cfg.wavelengths,
               "FusedKernel: lane mask must cover every wavelength");
  full_optics_ = cfg.use_full_optics;
  adc_ = cfg.adc_readout;
  adc_bits_ = cfg.adc_bits;
  adc_full_scale_ = cfg.adc_full_scale;

  // The j·κ factor is snapshotted through the same expression the coupler
  // evaluates (Complex{0,1} · κ), so even its signed-zero real part is
  // reproduced exactly.
  const photonics::Complex f = ddot.phase_shifter().factor();
  const photonics::Complex jk = photonics::Complex{0.0, 1.0} * ddot.coupler().coupling();
  LaneTransfer lane;
  lane.ps_re = f.real();
  lane.ps_im = f.imag();
  lane.t = ddot.coupler().transmission();
  lane.jk_re = jk.real();
  lane.jk_im = jk.imag();

  // Fence mask folds into the packing: operands ride the surviving
  // wavelengths only, exactly like PhotonicDotEngine::active_lanes_.
  std::size_t active = 0;
  for (std::size_t ch = 0; ch < cfg.wavelengths; ++ch) {
    if (cfg.lane_mask.empty() || cfg.lane_mask[ch] != 0u) ++active;
  }
  PDAC_REQUIRE(active >= 1, "FusedKernel: lane mask leaves no usable wavelength");
  lanes_.assign(active, lane);

  det_.gain_plus = ddot.pd_plus().effective_responsivity();
  det_.dark_plus = ddot.pd_plus().config().dark_current;
  det_.gain_minus = ddot.pd_minus().effective_responsivity();
  det_.dark_minus = ddot.pd_minus().config().dark_current;
}

double FusedKernel::reduce(std::span<const double> xe, std::span<const double> ye) const {
  const std::size_t n = xe.size();
  if (!full_optics_) {
    // Fast-path engines reduce encoded amplitudes directly; the chunked
    // loop flattens to one pass (chunk boundaries do not reassociate).
    double acc = 0.0;
    for (std::size_t p = 0; p < n; ++p) acc += xe[p] * ye[p];
    return acc;
  }
  const std::size_t nl = lanes_.size();
  const LaneTransfer* const lanes = lanes_.data();
  double acc = 0.0;
  for (std::size_t base = 0; base < n; base += nl) {
    const std::size_t len = std::min(nl, n - base);
    double sum_p = 0.0;
    double sum_m = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      const LaneTransfer& ln = lanes[i];
      const double x = xe[base + i];
      const double y = ye[base + i];
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
      const double lr = ln.ps_re * y;
      const double li = ln.ps_im * y;
      // Coupler: upper' = t·x − κ·li + j·(κ·lr), lower' = t·lr + j·(κ·x + t·li).
      const double ur = ln.t * x - ln.jk_im * li;
      const double ui = ln.jk_im * lr;
      const double wr = ln.t * lr;
      const double wi = ln.jk_im * x + ln.t * li;
      // Balanced detection integrates I = Σ ½|E|² in ascending channel
      // order; inactive channels contribute exactly +0.0 and are skipped.
      sum_p += 0.5 * (ur * ur + ui * ui);
      sum_m += 0.5 * (wr * wr + wi * wi);
    }
    acc += (det_.gain_plus * sum_p + det_.dark_plus) -
           (det_.gain_minus * sum_m + det_.dark_minus);
  }
  return acc;
}

converters::ElectricalAdc FusedKernel::make_adc(std::size_t n) const {
  converters::ElectricalAdcConfig ac;
  ac.bits = adc_bits_;
  ac.v_ref = adc_full_scale_ > 0.0 ? adc_full_scale_
                                   : static_cast<double>(std::max<std::size_t>(n, 1));
  return converters::ElectricalAdc(ac);
}

double FusedKernel::apply_adc(double acc, std::size_t n) const {
  return adc_ ? make_adc(n).sample_to_voltage(acc) : acc;
}

void FusedKernel::readout(const converters::ElectricalAdc& adc, std::span<double> raw,
                          double rescale, double* rsum, double* csum) const {
  // One span ADC call per tile row (bit-identical to sampling each value),
  // then the rescale and the tile sums in ascending j: the device-graph
  // loop's order, which the guard's bit-identity needs.
  if (adc_) adc.sample_to_voltage(raw, raw);
  for (std::size_t b = 0; b < raw.size(); ++b) {
    const double r = raw[b];
    raw[b] = r * rescale;
    if (rsum != nullptr) *rsum += r;
    if (csum != nullptr) csum[b] += r;
  }
}

double FusedKernel::dot(std::span<const double> xe, std::span<const double> ye,
                        EventCounter* ev) const {
  PDAC_REQUIRE(xe.size() == ye.size(), "FusedKernel: operand length mismatch");
  const std::size_t n = xe.size();
  const double acc = reduce(xe, ye);
  if (ev != nullptr) {
    const std::size_t nl = lanes_.size();
    const std::size_t chunks = (n + nl - 1) / nl;
    ev->detection_events += chunks;
    ev->ddot_ops += chunks;
    ev->macs += n;
  }
  return apply_adc(acc, n);
}

void FusedKernel::run_tile(const Tile& tile, const Matrix& ae, const Matrix& be,
                           double rescale, Matrix& c, double* rsum, double* csum) const {
  const std::size_t k = ae.cols();
  // >=: prepared operands may pad the reduction axis with physical
  // column capacity (PreparedOperand shape contract); every loop here
  // is bounded by the A-side k, so padding is never read.
  PDAC_REQUIRE(be.cols() >= k, "FusedKernel: operand reduction lengths must agree");
  // The reduction length is fixed across the tile, so the ADC (whose
  // behavior depends only on bits and full scale) is built once instead
  // of per dot — identical round-trip, hoisted construction.
  const converters::ElectricalAdc adc = make_adc(k);
  constexpr std::size_t kBlock = 4;
  const std::size_t col_end = tile.col0 + tile.cols;
  for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
    const auto x = ae.row(i);
    // Raw values land in the output row first; readout() converts them in
    // place.
    double* const raw = c.row(i).data() + tile.col0;
    std::size_t j = tile.col0;
    // Blocked main loop: four dots per pass for ILP (see reduce_block);
    // the raw values match the scalar loop exactly.
    for (; j + kBlock <= col_end; j += kBlock) {
      const double* ys[kBlock];
      for (std::size_t b = 0; b < kBlock; ++b) ys[b] = be.row(j + b).data();
      reduce_block<kBlock>(lanes_.data(), lanes_.size(), det_, full_optics_, x.data(), ys, k,
                           raw + (j - tile.col0));
    }
    for (; j < col_end; ++j) raw[j - tile.col0] = reduce(x, be.row(j));
    readout(adc, {raw, tile.cols}, rescale, rsum != nullptr ? rsum + (i - tile.row0) : nullptr,
            csum);
  }
}

FusedKernel::QuadraticForm FusedKernel::quadratic_form(std::size_t k) const {
  // Closed quadratic form of the full-optics physics.  Every lane shares
  // one coefficient row (the constructor assigns the same LaneTransfer to
  // all active wavelengths — a class invariant), so the per-element rail
  // intensities collapse algebraically:
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
  const LaneTransfer& ln = lanes_.front();
  const double f2 = ln.ps_re * ln.ps_re + ln.ps_im * ln.ps_im;
  const double t2 = ln.t * ln.t;
  const double k2 = ln.jk_im * ln.jk_im;
  const std::uint64_t chunks = (k + lanes_.size() - 1) / lanes_.size();
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
                                double rescale, Matrix& c, double* rsum, double* csum) const {
  const std::size_t k = ae.cols();
  // >=: prepared operands may pad the reduction axis with physical
  // column capacity (PreparedOperand shape contract); every loop here
  // is bounded by the A-side k, so padding is never read.
  PDAC_REQUIRE(be.cols() >= k, "FusedKernel: operand reduction lengths must agree");
  PDAC_REQUIRE(!full_optics_ || (xx.size() >= tile.row0 + tile.rows &&
                                 yy.size() >= tile.col0 + tile.cols),
               "FusedKernel: full optics needs row and column energies covering the tile");
  const converters::ElectricalAdc adc = make_adc(k);
  // Full optics: the closed form over the caller's energies, indexed by
  // absolute row i and column j; off, each raw value is simd::dot(x, y, k).
  const QuadraticForm q = full_optics_ ? quadratic_form(k) : QuadraticForm{};

  constexpr std::size_t kBlock = 4;
  const std::size_t col_end = tile.col0 + tile.cols;
  for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
    const double* x = ae.row(i).data();
    double* const raw = c.row(i).data() + tile.col0;
    std::size_t j = tile.col0;
    for (; j + kBlock <= col_end; j += kBlock) {
      const double* ys[kBlock];
      for (std::size_t b = 0; b < kBlock; ++b) ys[b] = be.row(j + b).data();
      double sxy[kBlock];
      simd::dot4(x, ys, k, sxy);
      for (std::size_t b = 0; b < kBlock; ++b) {
        raw[j + b - tile.col0] =
            full_optics_ ? q.cxx * xx[i] + q.cyy * yy[j + b] + q.cxy * sxy[b] + q.dark : sxy[b];
      }
    }
    for (; j < col_end; ++j) {
      const double sxy = simd::dot(x, be.row(j).data(), k);
      raw[j - tile.col0] =
          full_optics_ ? q.cxx * xx[i] + q.cyy * yy[j] + q.cxy * sxy + q.dark : sxy;
    }
    readout(adc, {raw, tile.cols}, rescale, rsum != nullptr ? rsum + (i - tile.row0) : nullptr,
            csum);
  }
}

}  // namespace pdac::ptc
