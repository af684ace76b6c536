// Tests for the fused flat-array compute kernel (ptc/kernel.hpp) and its
// supporting coefficient tables: the kernel must match the device-graph
// path BIT FOR BIT — outputs and event counts — across custom device
// chains, ragged edges, fenced lanes, derated detectors, ADC settings,
// guard on/off and any thread count — and the faults-layer lane table and
// encoder must match the live lane models across fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "converters/electrical_adc.hpp"
#include "core/modulator_driver.hpp"
#include "faults/fault_injector.hpp"
#include "faults/lane_table.hpp"
#include "ptc/ddot.hpp"
#include "ptc/dot_engine.hpp"
#include "ptc/gemm_engine.hpp"
#include "ptc/kernel.hpp"
#include "ptc/tile_scheduler.hpp"

namespace {

using namespace pdac;
using namespace pdac::ptc;

void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)), 0);
}

void expect_events_equal(const EventCounter& a, const EventCounter& b) {
  EXPECT_EQ(a.modulation_events, b.modulation_events);
  EXPECT_EQ(a.detection_events, b.detection_events);
  EXPECT_EQ(a.adc_events, b.adc_events);
  EXPECT_EQ(a.ddot_ops, b.ddot_ops);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.cycles, b.cycles);
}

/// Authoritative reference for the standalone kernel: the device-graph
/// reduction exactly as PhotonicDotEngine::dot_preencoded stages it —
/// fresh WdmField rails per chunk, Ddot::compute, ADC round-trip.
double device_dot(const Ddot& ddot, const DotEngineConfig& cfg, std::span<const double> xe,
                  std::span<const double> ye) {
  std::vector<std::size_t> active;
  for (std::size_t ch = 0; ch < cfg.wavelengths; ++ch) {
    if (cfg.lane_mask.empty() || cfg.lane_mask[ch] != 0u) active.push_back(ch);
  }
  const std::size_t nl = active.size();
  double acc = 0.0;
  for (std::size_t base = 0; base < xe.size(); base += nl) {
    const std::size_t len = std::min(nl, xe.size() - base);
    if (cfg.use_full_optics) {
      photonics::DualRail rails{photonics::WdmField(cfg.wavelengths),
                                photonics::WdmField(cfg.wavelengths)};
      for (std::size_t i = 0; i < len; ++i) {
        rails.upper.set_amplitude(active[i], photonics::Complex{xe[base + i], 0.0});
        rails.lower.set_amplitude(active[i], photonics::Complex{ye[base + i], 0.0});
      }
      acc += ddot.compute(rails).value();
    } else {
      for (std::size_t i = 0; i < len; ++i) acc += xe[base + i] * ye[base + i];
    }
  }
  if (!cfg.adc_readout) return acc;
  const double fs = cfg.adc_full_scale > 0.0
                        ? cfg.adc_full_scale
                        : static_cast<double>(std::max<std::size_t>(xe.size(), 1));
  converters::ElectricalAdcConfig ac;
  ac.bits = cfg.adc_bits;
  ac.v_ref = fs;
  return converters::ElectricalAdc(ac).sample_to_voltage(acc);
}

/// A deliberately non-default device chain: off-nominal phase, an
/// imbalanced coupler, mismatched/derated detectors with dark current.
Ddot custom_ddot() {
  photonics::PhotodetectorConfig pp;
  pp.responsivity = 0.9;
  pp.dark_current = 3e-4;
  photonics::PhotodetectorConfig pm;
  pm.responsivity = 0.85;
  pm.dark_current = 1e-4;
  photonics::Photodetector pd_plus(pp);
  pd_plus.derate(0.8);  // TIA/radiation derating on one receive side
  return Ddot(photonics::PhaseShifter(-1.41), photonics::DirectionalCoupler(0.6), pd_plus,
              photonics::Photodetector(pm));
}

TEST(FusedKernel, MatchesCustomDeviceChainBitForBit) {
  // The closed-form snapshot must replay an arbitrary (imbalanced,
  // derated, dark-current-carrying) device chain exactly — including
  // ragged final chunks and fenced-lane packing.
  const Ddot ddot = custom_ddot();
  Rng rng(17);
  for (const bool adc : {false, true}) {
    for (const double fs : {0.0, 3.7}) {
      DotEngineConfig cfg;
      cfg.wavelengths = 5;
      cfg.use_full_optics = true;
      cfg.adc_readout = adc;
      cfg.adc_full_scale = fs;
      cfg.lane_mask = {1, 0, 1, 1, 0};  // two fenced lanes -> packing holes
      const FusedKernel kernel(ddot, cfg);
      ASSERT_EQ(kernel.active_wavelengths(), 3u);
      for (std::size_t n : {1u, 2u, 3u, 7u, 23u}) {
        const auto xe = rng.uniform_vector(n, -1.0, 1.0);
        const auto ye = rng.uniform_vector(n, -1.0, 1.0);
        EXPECT_EQ(kernel.dot(xe, ye), device_dot(ddot, cfg, xe, ye))
            << "n=" << n << " adc=" << adc << " fs=" << fs;
      }
    }
  }
}

/// The SIMD tier's full-optics closed form cxx·Σx² + cyy·Σy² + cxy·Σxy +
/// dark, with its coefficients re-derived from the kernel's lane table and
/// detector (the derivation in kernel.cpp) in the kernel's operation order.
struct ClosedForm {
  double cxx, cyy, cxy, dark;

  ClosedForm(const FusedKernel& kernel, std::size_t k) {
    const LaneTransfer& ln = kernel.lane_table().front();
    const DetectorTransfer& det = kernel.detector();
    const double f2 = ln.ps_re * ln.ps_re + ln.ps_im * ln.ps_im;
    const double t2 = ln.t * ln.t;
    const double k2 = ln.jk_im * ln.jk_im;
    const std::size_t nl = kernel.active_wavelengths();
    cxx = 0.5 * (det.gain_plus * t2 - det.gain_minus * k2);
    cyy = 0.5 * f2 * (det.gain_plus * k2 - det.gain_minus * t2);
    cxy = -ln.t * ln.jk_im * ln.ps_im * (det.gain_plus + det.gain_minus);
    dark = static_cast<double>((k + nl - 1) / nl) * (det.dark_plus - det.dark_minus);
  }
  [[nodiscard]] double operator()(double xx, double yy, double xy) const {
    return cxx * xx + cyy * yy + cxy * xy + dark;
  }
};

/// Ragged tiles at every offset combination against an m × n = 9 × 11
/// output: 4-wide column blocks plus tails, nonzero row0/col0.
constexpr Tile kOffsetTiles[] = {{0, 0, 3, 6}, {2, 3, 5, 7}, {7, 1, 2, 9}, {4, 10, 5, 1}};

bool inside(const Tile& tile, std::size_t i, std::size_t j) {
  return i >= tile.row0 && i < tile.row0 + tile.rows && j >= tile.col0 &&
         j < tile.col0 + tile.cols;
}

TEST(FusedKernel, FastTileReadsAbsoluteEnergiesOnImbalancedChain) {
  // run_tile_fast on the imbalanced custom chain (t = 0.6), where cxx and
  // cyy are O(1): every output must be the closed form evaluated from the
  // caller's energies at its ABSOLUTE row and column.  Ragged tiles at
  // nonzero row0/col0 make a tile-relative read land on another row's or
  // column's energy.
  const Ddot ddot = custom_ddot();
  const std::size_t m = 9;
  const std::size_t n = 11;
  const std::size_t k = 23;
  Rng rng(61);
  Matrix ae(m, k);
  Matrix be(n, k);
  for (double& v : ae.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : be.data()) v = rng.uniform(-1.0, 1.0);
  std::vector<double> xx(m);
  std::vector<double> yy(n);
  for (std::size_t i = 0; i < m; ++i) xx[i] = simd::dot_self(ae.row(i).data(), k);
  for (std::size_t j = 0; j < n; ++j) yy[j] = simd::dot_self(be.row(j).data(), k);

  for (const bool adc : {false, true}) {
    SCOPED_TRACE(adc ? "adc on" : "adc off");
    DotEngineConfig cfg;
    cfg.wavelengths = 5;
    cfg.use_full_optics = true;
    cfg.adc_readout = adc;
    const FusedKernel kernel(ddot, cfg);
    const ClosedForm form(kernel, k);
    ASSERT_GT(std::abs(form.cxx), 0.01);
    ASSERT_GT(std::abs(form.cyy), 0.01);
    converters::ElectricalAdcConfig ac;
    ac.bits = cfg.adc_bits;
    ac.v_ref = static_cast<double>(k);
    const converters::ElectricalAdc converter(ac);

    for (const Tile& tile : kOffsetTiles) {
      SCOPED_TRACE(testing::Message() << "tile at " << tile.row0 << "," << tile.col0);
      const double rescale = 0.5;
      Matrix c(m, n);
      kernel.run_tile_fast(tile, ae, be, xx, yy, rescale, c);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (!inside(tile, i, j)) {
            EXPECT_EQ(c(i, j), 0.0);
            continue;
          }
          double r = form(xx[i], yy[j], simd::dot(ae.row(i).data(), be.row(j).data(), k));
          if (adc) r = converter.sample_to_voltage(r);
          EXPECT_EQ(c(i, j), r * rescale) << "output " << i << "," << j;
        }
      }
    }
  }
}

// The tile readout contract both FusedKernel tiers share, checked against
// the scalar ADC: each ADC-on output is sample_to_voltage of the ADC-off
// raw value, rescaled, and the tile sums fold those post-ADC values in
// ascending order.
namespace readout_check {

/// Output shape the tiles below cut into.
constexpr std::size_t kRows = 9;
constexpr std::size_t kCols = 12;

/// Ragged tiles of 1 to 11 columns at nonzero row0/col0 — whole 4-wide
/// column blocks and every tail — as (row0, col0, rows, cols).
constexpr Tile kTiles[] = {{1, 1, 2, 1}, {2, 3, 3, 6}, {3, 2, 1, 7}, {4, 1, 5, 11},
                           {6, 4, 3, 8}, {5, 9, 2, 3}, {7, 2, 2, 4}};

/// Runs `run(kernel, tile, rescale, c, rsum, csum)` on the ADC-on and the
/// ADC-off kernel of one chain over every tile, with and without tile
/// sums, and checks the readout of the ADC-on run against `adc`, the
/// scalar converter at the tiles' full scale.
template <typename Run>
void expect_span_readout(const FusedKernel& on, const FusedKernel& off,
                         const converters::ElectricalAdc& adc, const Run& run) {
  const double rescale = 0.75;
  for (const Tile& tile : kTiles) {
    SCOPED_TRACE(testing::Message() << "tile at " << tile.row0 << "," << tile.col0 << ", "
                                    << tile.cols << " columns");
    Matrix raw(kRows, kCols);
    run(off, tile, 1.0, raw, nullptr, nullptr);
    for (const bool sums : {false, true}) {
      Matrix c(kRows, kCols);
      std::vector<double> rsum(tile.rows, 0.0);
      std::vector<double> csum(tile.cols, 0.0);
      run(on, tile, rescale, c, sums ? rsum.data() : nullptr, sums ? csum.data() : nullptr);
      std::vector<double> want_rsum(tile.rows, 0.0);
      std::vector<double> want_csum(tile.cols, 0.0);
      std::size_t distinct = 0;
      for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
        for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
          const double v = adc.sample_to_voltage(raw(i, j));
          distinct += v != raw(i, j) ? 1 : 0;
          EXPECT_EQ(c(i, j), v * rescale) << "output " << i << "," << j;
          want_rsum[i - tile.row0] += v;
          want_csum[j - tile.col0] += v;
        }
      }
      EXPECT_GT(distinct, 0u) << "the ADC rounded nothing";
      if (sums) {
        EXPECT_EQ(rsum, want_rsum);
        EXPECT_EQ(csum, want_csum);
      }
    }
  }
}

}  // namespace readout_check

TEST(FusedKernel, SpanReadoutEqualsScalarAdcOnDoubleTiers) {
  // run_tile and run_tile_fast read each tile row out through the span
  // ADC: every output must be the scalar round trip of the ADC-off raw
  // value, rescaled, and the tile sums must fold the post-ADC values in
  // ascending order.  Full optics on the imbalanced chain and the
  // amplitude domain, at auto and fixed full scale.
  const Ddot ddot = custom_ddot();
  const std::size_t k = 23;
  Rng rng(71);
  Matrix ae(readout_check::kRows, k);
  Matrix be(readout_check::kCols, k);
  for (double& v : ae.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : be.data()) v = rng.uniform(-1.0, 1.0);
  for (const bool optics : {false, true}) {
    for (const double fs : {0.0, 1.5}) {
      SCOPED_TRACE(testing::Message() << "optics " << optics << ", full scale " << fs);
      DotEngineConfig cfg;
      cfg.wavelengths = 5;
      cfg.use_full_optics = optics;
      cfg.adc_full_scale = fs;
      const FusedKernel off(ddot, cfg);
      cfg.adc_readout = true;
      const FusedKernel on(ddot, cfg);
      std::vector<double> xx(ae.rows());
      std::vector<double> yy(be.rows());
      for (std::size_t i = 0; i < xx.size(); ++i) xx[i] = on.energy(ae.row(i));
      for (std::size_t j = 0; j < yy.size(); ++j) yy[j] = on.energy(be.row(j));
      converters::ElectricalAdcConfig ac;
      ac.bits = cfg.adc_bits;
      ac.v_ref = fs > 0.0 ? fs : static_cast<double>(k);
      const converters::ElectricalAdc adc(ac);
      {
        SCOPED_TRACE("run_tile");
        readout_check::expect_span_readout(
            on, off, adc,
            [&](const FusedKernel& kernel, const Tile& tile, double rescale, Matrix& c,
                double* rsum, double* csum) {
              kernel.run_tile(tile, ae, be, rescale, c, rsum, csum);
            });
      }
      {
        SCOPED_TRACE("run_tile_fast");
        readout_check::expect_span_readout(
            on, off, adc,
            [&](const FusedKernel& kernel, const Tile& tile, double rescale, Matrix& c,
                double* rsum, double* csum) {
              kernel.run_tile_fast(tile, ae, be, xx, yy, rescale, c, rsum, csum);
            });
      }
    }
  }
}

TEST(FusedKernel, NonOpticsPathMatchesFlatReduction) {
  const Ddot ddot;  // irrelevant on the algebraic path
  DotEngineConfig cfg;
  cfg.wavelengths = 8;
  cfg.use_full_optics = false;
  cfg.adc_readout = true;
  const FusedKernel kernel(ddot, cfg);
  Rng rng(23);
  const auto xe = rng.uniform_vector(19, -1.0, 1.0);
  const auto ye = rng.uniform_vector(19, -1.0, 1.0);
  EXPECT_EQ(kernel.dot(xe, ye), device_dot(ddot, cfg, xe, ye));
}

TEST(FusedKernel, EventChargesMatchDotPreencoded) {
  const auto drv = core::make_pdac_driver(8);
  DotEngineConfig cfg;
  cfg.wavelengths = 4;
  cfg.use_full_optics = true;
  const PhotonicDotEngine engine(*drv, cfg);
  const FusedKernel kernel(engine);
  Rng rng(31);
  for (std::size_t n : {1u, 4u, 9u, 17u}) {
    std::vector<double> xe(n), ye(n);
    const auto x = rng.uniform_vector(n, -1.0, 1.0);
    const auto y = rng.uniform_vector(n, -1.0, 1.0);
    engine.encode_span(x, xe);
    engine.encode_span(y, ye);
    EventCounter kev, dev_ev;
    const double got = kernel.dot(xe, ye, &kev);
    const double want = engine.dot_preencoded(xe, ye, &dev_ev);
    EXPECT_EQ(got, want) << "n=" << n;
    expect_events_equal(kev, dev_ev);
  }
}

TEST(FusedKernel, DdotScratchOverloadsBitIdentical) {
  // The allocation-free Ddot overloads (satellite of the kernel work)
  // must match the allocating ones bit for bit, including masked
  // execution and scratch reuse across differently-shaped calls.
  const Ddot ddot = custom_ddot();
  Rng rng(41);
  DdotScratch scratch;
  for (std::size_t n : {6u, 3u, 6u, 1u}) {  // shrink then regrow the scratch
    photonics::DualRail rails{photonics::WdmField(n), photonics::WdmField(n)};
    std::vector<std::uint8_t> mask(n, 1);
    for (std::size_t ch = 0; ch < n; ++ch) {
      rails.upper.set_amplitude(ch, photonics::Complex{rng.uniform(-1.0, 1.0), 0.0});
      rails.lower.set_amplitude(ch, photonics::Complex{rng.uniform(-1.0, 1.0), 0.0});
      if (rng.integer(0, 2) == 0) mask[ch] = 0;
    }
    const DdotReading plain = ddot.compute(rails);
    const DdotReading staged = ddot.compute(rails, scratch);
    EXPECT_EQ(plain.i_plus, staged.i_plus);
    EXPECT_EQ(plain.i_minus, staged.i_minus);

    const DdotReading masked = ddot.compute_masked(rails, mask);
    const DdotReading masked_staged = ddot.compute_masked(rails, mask, scratch);
    EXPECT_EQ(masked.i_plus, masked_staged.i_plus);
    EXPECT_EQ(masked.i_minus, masked_staged.i_minus);

    const auto xs = rng.uniform_vector(n, -1.0, 1.0);
    const auto ys = rng.uniform_vector(n, -1.0, 1.0);
    const DdotReading span_plain = ddot.compute(xs, ys);
    const DdotReading span_staged = ddot.compute(xs, ys, scratch);
    EXPECT_EQ(span_plain.i_plus, span_staged.i_plus);
    EXPECT_EQ(span_plain.i_minus, span_staged.i_minus);
  }
}

/// One fuzz draw of a GEMM configuration (shape, wavelengths, lane
/// holes, optics/ADC/guard switches, array geometry, thread count).
struct FuzzCase {
  std::size_t m, k, n;
  GemmConfig cfg;
};

FuzzCase draw_case(Rng& rng) {
  FuzzCase fc;
  fc.m = static_cast<std::size_t>(rng.integer(1, 20));
  fc.k = static_cast<std::size_t>(rng.integer(1, 33));
  fc.n = static_cast<std::size_t>(rng.integer(1, 20));
  fc.cfg.dot.wavelengths = static_cast<std::size_t>(rng.integer(1, 8));
  fc.cfg.dot.use_full_optics = rng.integer(0, 1) == 1;
  fc.cfg.dot.adc_readout = rng.integer(0, 1) == 1;
  fc.cfg.dot.adc_full_scale = rng.integer(0, 1) == 1 ? 2.5 : 0.0;
  if (fc.cfg.dot.wavelengths > 1 && rng.integer(0, 1) == 1) {
    fc.cfg.dot.lane_mask.assign(fc.cfg.dot.wavelengths, 1);
    // Punch holes but keep at least one lane alive.
    for (std::size_t ch = 1; ch < fc.cfg.dot.wavelengths; ++ch) {
      if (rng.integer(0, 2) == 0) fc.cfg.dot.lane_mask[ch] = 0;
    }
  }
  fc.cfg.array_rows = static_cast<std::size_t>(rng.integer(1, 8));
  fc.cfg.array_cols = static_cast<std::size_t>(rng.integer(1, 8));
  fc.cfg.threads = static_cast<std::size_t>(rng.integer(1, 4));
  fc.cfg.guard.enabled = rng.integer(0, 1) == 1;
  return fc;
}

TEST(KernelGemmEquivalence, FuzzMultiplyBitIdentical) {
  // The tentpole contract: across random shapes, wavelength counts,
  // lane-mask holes, optics/ADC settings, guard on/off and thread
  // counts, the kernel path and the device-graph path produce the same
  // bits — outputs, every EventCounter field, and the guard verdicts.
  const auto drv = core::make_pdac_driver(8);
  Rng rng(2026);
  for (int trial = 0; trial < 40; ++trial) {
    FuzzCase fc = draw_case(rng);
    fc.cfg.path = ExecutionPath::kKernel;
    const PhotonicGemm kernel_gemm(*drv, fc.cfg);
    fc.cfg.path = ExecutionPath::kDeviceGraph;
    const PhotonicGemm device_gemm(*drv, fc.cfg);

    const Matrix a = Matrix::random_gaussian(fc.m, fc.k, rng, 0.0, 1.0);
    const Matrix b = Matrix::random_gaussian(fc.k, fc.n, rng, 0.0, 1.0);
    const GemmResult kr = kernel_gemm.multiply(a, b);
    const GemmResult dr = device_gemm.multiply(a, b);

    expect_bit_identical(kr.c, dr.c);
    expect_events_equal(kr.events, dr.events);
    expect_events_equal(kr.events, kernel_gemm.count_events(fc.m, fc.k, fc.n));
    EXPECT_EQ(kr.guard.enabled, dr.guard.enabled);
    EXPECT_EQ(kr.guard.tiles_checked, dr.guard.tiles_checked);
    EXPECT_EQ(kr.guard.mismatched_tiles, dr.guard.mismatched_tiles);
    EXPECT_EQ(kr.guard.first_mismatch, dr.guard.first_mismatch);
    EXPECT_EQ(kr.guard.worst_residual, dr.guard.worst_residual);
    EXPECT_EQ(kr.guard.worst_tolerance, dr.guard.worst_tolerance);
    // Clean-run guard verdicts: with ADC off the residual is pure
    // reassociation and must sit inside the band.  (With ADC on and no
    // calibrated noise band, quantization legitimately trips the guard —
    // identically on both paths, which the checks above already pin.)
    if (fc.cfg.guard.enabled && !fc.cfg.dot.adc_readout) {
      EXPECT_EQ(kr.guard.mismatched_tiles, 0u) << "trial " << trial;
    }
  }
}

TEST(KernelGemmEquivalence, PreparedPathBitIdentical) {
  // Weight-stationary products must hold the same contract: one
  // PreparedOperand consumed by both paths yields the same bits.
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.dot.wavelengths = 4;
  cfg.dot.use_full_optics = true;
  cfg.dot.adc_readout = true;
  cfg.array_rows = 3;
  cfg.array_cols = 5;
  cfg.guard.enabled = true;
  cfg.path = ExecutionPath::kKernel;
  const PhotonicGemm kernel_gemm(*drv, cfg);
  cfg.path = ExecutionPath::kDeviceGraph;
  const PhotonicGemm device_gemm(*drv, cfg);

  Rng rng(7);
  const Matrix a = Matrix::random_gaussian(11, 21, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(21, 13, rng, 0.0, 1.0);
  const PreparedOperand pb = kernel_gemm.prepare_b(b);
  const GemmResult kr = kernel_gemm.multiply_prepared(a, pb);
  const GemmResult dr = device_gemm.multiply_prepared(a, pb);
  const GemmResult full = kernel_gemm.multiply(a, b);
  expect_bit_identical(kr.c, dr.c);
  expect_bit_identical(kr.c, full.c);
  expect_events_equal(kr.events, dr.events);
  expect_events_equal(kr.events, full.events);
}

// ---------------------------------------------------------------------
// SIMD fast tier (ExecutionPath::kKernelSimd, common/simd.hpp)

/// Tolerance band for one SIMD-tier output element vs the scalar kernel,
/// in the rescaled output domain — the ABFT machinery reused as the
/// identity gate: fp reassociation term for a single dot (fan = 1,
/// mag ≤ k) plus the calibrated ADC quantization sigma, which covers the
/// ≤1-LSB code divergence two in-band raw values can straddle.
double simd_band(const GemmConfig& cfg, std::size_t k, double rescale) {
  GuardConfig g;  // default fp_slack / zscore
  g.noise_sigma = calibrate_guard_sigma(cfg.dot, k);
  return rescale * guard_tolerance(g, k, 1, static_cast<double>(k));
}

void expect_within_band(const Matrix& simd, const Matrix& scalar, double band,
                        int trial = -1) {
  ASSERT_EQ(simd.rows(), scalar.rows());
  ASSERT_EQ(simd.cols(), scalar.cols());
  for (std::size_t i = 0; i < simd.size(); ++i) {
    const double d = std::abs(simd.data()[i] - scalar.data()[i]);
    ASSERT_LE(d, band) << "element " << i << " trial " << trial;
  }
}

TEST(KernelSimdTier, PrimitivesMatchNaiveReduction) {
  // The simd wrapper's blocked dots vs single-chain references, across
  // lengths hitting every tail shape (0, sub-block, block+tail) and the
  // BERT-base reduction lengths; dot4 is four dot calls, bit for bit.
  Rng rng(57);
  for (const std::size_t n :
       {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 33u, 100u, 768u, 3072u}) {
    const auto x = rng.uniform_vector(n, -1.0, 1.0);
    std::vector<std::vector<double>> ys;
    for (int b = 0; b < 4; ++b) ys.push_back(rng.uniform_vector(n, -1.0, 1.0));
    const auto naive = [&](const std::vector<double>& y) {
      double acc = 0.0;
      for (std::size_t p = 0; p < n; ++p) acc += x[p] * y[p];
      return acc;
    };
    const double band = 64.0 * std::numeric_limits<double>::epsilon() *
                        static_cast<double>(std::max<std::size_t>(n, 1));
    EXPECT_NEAR(simd::dot(x.data(), ys[0].data(), n), naive(ys[0]), band);
    EXPECT_NEAR(simd::dot_self(x.data(), n), [&] {
      double acc = 0.0;
      for (std::size_t p = 0; p < n; ++p) acc += x[p] * x[p];
      return acc;
    }(), band);
    const double* yp[4] = {ys[0].data(), ys[1].data(), ys[2].data(), ys[3].data()};
    double out[4];
    simd::dot4(x.data(), yp, n, out);
    for (int b = 0; b < 4; ++b) {
      EXPECT_NEAR(out[b], naive(ys[b]), band) << "n=" << n;
      const double single = simd::dot(x.data(), ys[b].data(), n);
      EXPECT_EQ(std::memcmp(&out[b], &single, sizeof(double)), 0)
          << "n=" << n << " b=" << b << ": dot4 " << out[b] << " vs dot " << single;
    }
  }
}

TEST(KernelSimdTier, SerialDotsEqualTheScalarLoop) {
  // simd::serial_dots is the guard's reference side, so each chain must
  // be the scalar loop's result bit for bit, NaN exactly where the loop
  // gives NaN, on whichever ISA is live.  Chain counts 0–19 reach whole
  // groups of eight, every padded leftover and none; lengths reach every
  // tail; one x may feed every chain, as the column lanes' xsum does.
  // Three value regimes: plain values in [−1, 1]; tiny ones whose
  // products and sums are subnormal, with ±0; and ±DBL_MAX, ±Inf and NaN
  // sprinkled into plain values, so chains overflow, cancel to NaN or
  // stay finite.
  SCOPED_TRACE(std::string("isa ") + simd::active_isa());
  const auto loop = [](const double* x, const double* y, std::size_t n) {
    double a = 0.0;
    for (std::size_t p = 0; p < n; ++p) a += x[p] * y[p];
    return a;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kTrue = std::numeric_limits<double>::denorm_min();
  const double tiny_specials[] = {0.0, -0.0, kTrue, -kTrue, 3.0 * kTrue, -0x1p-1030};
  const double wide_specials[] = {kMax, -kMax, kInf, -kInf,
                                  std::numeric_limits<double>::quiet_NaN()};
  Rng rng(73);
  const auto draw = [&](int regime) {
    const double u = rng.uniform(-1.0, 1.0);
    const double pick = rng.uniform(0.0, 1.0);
    if (regime == 1) {
      if (pick < 0.25) return tiny_specials[static_cast<std::size_t>(pick * 24.0)];
      return u * 0x1p-520;
    }
    if (regime == 2 && pick < 0.05) return wide_specials[static_cast<std::size_t>(pick * 100.0)];
    return u;
  };
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 20; ++n) lengths.push_back(n);
  for (const std::size_t n : {31u, 768u, 771u}) lengths.push_back(n);
  std::size_t nan_results = 0, subnormal_results = 0, inf_results = 0;
  for (int regime = 0; regime < 3; ++regime) {
    for (const bool shared_x : {false, true}) {
      for (const std::size_t n : lengths) {
        std::vector<std::vector<double>> xs(19), ys(19);
        for (std::size_t c = 0; c < 19; ++c) {
          for (std::size_t p = 0; p < n; ++p) {
            xs[c].push_back(draw(regime));
            ys[c].push_back(draw(regime));
          }
        }
        std::vector<const double*> xp, yp;
        for (std::size_t c = 0; c < 19; ++c) {
          xp.push_back(xs[shared_x ? 0 : c].data());
          yp.push_back(ys[c].data());
        }
        for (std::size_t chains = 0; chains <= 19; ++chains) {
          std::vector<double> out(chains + 1, -1.0);
          simd::serial_dots(xp.data(), yp.data(), chains, n, out.data());
          for (std::size_t c = 0; c < chains; ++c) {
            const double want = loop(xp[c], yp[c], n);
            const std::string where = "regime " + std::to_string(regime) + " shared " +
                                      std::to_string(shared_x) + " n " + std::to_string(n) +
                                      " chains " + std::to_string(chains) + " chain " +
                                      std::to_string(c);
            if (std::isnan(want)) {
              ++nan_results;
              EXPECT_TRUE(std::isnan(out[c])) << where << ": " << out[c];
              continue;
            }
            if (std::isinf(want)) ++inf_results;
            if (want != 0.0 && std::abs(want) < std::numeric_limits<double>::min()) {
              ++subnormal_results;
            }
            EXPECT_EQ(std::memcmp(&out[c], &want, sizeof(double)), 0)
                << where << ": " << out[c] << " vs " << want;
          }
          EXPECT_EQ(out[chains], -1.0) << "wrote past chain " << chains;
        }
      }
    }
  }
  // Every special case was reached.
  EXPECT_GT(nan_results, 0u);
  EXPECT_GT(inf_results, 0u);
  EXPECT_GT(subnormal_results, 0u);
}

TEST(KernelSimdTier, OutputsIndependentOfTileWidth) {
  // Each SIMD output is one simd::dot whether it falls in a 4-wide column
  // block or a column tail, so the array width cannot move a single bit
  // of a product, with full optics off or on.
  const auto drv = core::make_pdac_driver(8);
  Rng rng(29);
  const Matrix a = Matrix::random_gaussian(12, 768, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(768, 40, rng, 0.0, 1.0);
  for (const bool full_optics : {false, true}) {
    GemmConfig cfg;
    cfg.dot.use_full_optics = full_optics;
    cfg.path = ExecutionPath::kKernelSimd;
    cfg.array_cols = 4;
    const GemmResult want = PhotonicGemm(*drv, cfg).multiply(a, b);
    for (const std::size_t cols : {5u, 8u}) {
      SCOPED_TRACE("full optics " + std::to_string(full_optics) + ", array_cols " +
                   std::to_string(cols));
      cfg.array_cols = cols;
      expect_bit_identical(PhotonicGemm(*drv, cfg).multiply(a, b).c, want.c);
    }
  }
}

TEST(KernelSimdTier, FuzzWithinToleranceBandOfScalarKernel) {
  // The fast-tier contract, fuzzed across the same case space as the
  // scalar tier's bit-identity gate: random shapes (ragged edges
  // included), wavelength counts, lane-mask holes, optics/ADC settings,
  // guard on/off and thread counts.  Outputs sit inside the ABFT-derived
  // band; event counts match the scalar tier — and count_events —
  // field for field.
  const auto drv = core::make_pdac_driver(8);
  Rng rng(4071);
  for (int trial = 0; trial < 40; ++trial) {
    FuzzCase fc = draw_case(rng);
    fc.cfg.path = ExecutionPath::kKernel;
    const PhotonicGemm scalar_gemm(*drv, fc.cfg);
    fc.cfg.path = ExecutionPath::kKernelSimd;
    const PhotonicGemm simd_gemm(*drv, fc.cfg);

    const Matrix a = Matrix::random_gaussian(fc.m, fc.k, rng, 0.0, 1.0);
    const Matrix b = Matrix::random_gaussian(fc.k, fc.n, rng, 0.0, 1.0);
    const GemmResult sr = scalar_gemm.multiply(a, b);
    const GemmResult vr = simd_gemm.multiply(a, b);

    EXPECT_EQ(vr.a_scale, sr.a_scale);
    EXPECT_EQ(vr.b_scale, sr.b_scale);
    expect_within_band(vr.c, sr.c, simd_band(fc.cfg, fc.k, sr.a_scale * sr.b_scale), trial);
    expect_events_equal(vr.events, sr.events);
    expect_events_equal(vr.events, simd_gemm.count_events(fc.m, fc.k, fc.n));
    EXPECT_EQ(vr.guard.enabled, sr.guard.enabled);
    EXPECT_EQ(vr.guard.tiles_checked, sr.guard.tiles_checked);
    EXPECT_EQ(vr.guard.checksum_events.macs, sr.guard.checksum_events.macs);
    // Clean guarded runs with ADC off: the fast tier's reassociation is
    // exactly what guard_tolerance's fp term budgets for, so the guard
    // must stay silent on it.
    if (fc.cfg.guard.enabled && !fc.cfg.dot.adc_readout) {
      EXPECT_EQ(vr.guard.mismatched_tiles, 0u) << "trial " << trial;
    }
  }
}

TEST(KernelSimdTier, RaggedColumnTailsStayInBand) {
  // Deterministic sweep of the block/tail seams the 4-wide column
  // blocking creates: n below, at, and straddling the block width, on
  // the full-optics + ADC hot configuration with multiple workers.
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.dot.wavelengths = 3;
  cfg.dot.use_full_optics = true;
  cfg.dot.adc_readout = true;
  cfg.array_rows = 3;
  cfg.array_cols = 5;
  cfg.threads = 2;
  Rng rng(83);
  for (const std::size_t n : {1u, 3u, 4u, 5u, 6u, 8u, 11u}) {
    cfg.path = ExecutionPath::kKernel;
    const PhotonicGemm scalar_gemm(*drv, cfg);
    cfg.path = ExecutionPath::kKernelSimd;
    const PhotonicGemm simd_gemm(*drv, cfg);
    const Matrix a = Matrix::random_gaussian(5, 13, rng, 0.0, 1.0);
    const Matrix b = Matrix::random_gaussian(13, n, rng, 0.0, 1.0);
    const GemmResult sr = scalar_gemm.multiply(a, b);
    const GemmResult vr = simd_gemm.multiply(a, b);
    expect_within_band(vr.c, sr.c, simd_band(cfg, 13, sr.a_scale * sr.b_scale));
    expect_events_equal(vr.events, sr.events);
  }
}

TEST(KernelSimdTier, PreparedPathMatchesMultiply) {
  // Weight-stationary products on the fast tier: one PreparedOperand,
  // multiply vs prepare+multiply_prepared — bit-identical to each other
  // (same tier, same code path) with equal events.
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.dot.wavelengths = 4;
  cfg.dot.use_full_optics = true;
  cfg.dot.adc_readout = true;
  cfg.guard.enabled = true;
  cfg.path = ExecutionPath::kKernelSimd;
  const PhotonicGemm simd_gemm(*drv, cfg);

  Rng rng(7);
  const Matrix a = Matrix::random_gaussian(11, 21, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(21, 13, rng, 0.0, 1.0);
  const PreparedOperand pb = simd_gemm.prepare_b(b);
  const GemmResult split = simd_gemm.multiply_prepared(a, pb);
  const GemmResult fused = simd_gemm.multiply(a, b);
  expect_bit_identical(split.c, fused.c);
  expect_events_equal(split.events, fused.events);
}

TEST(KernelSimdTier, GuardCatchesCorruptionIdenticallyToScalar) {
  // The storm-facing half of the contract: the ABFT guard rides the
  // fast tier unchanged.  A latched element in the encoded operand
  // (checksums already built — the prepared-state corruption the guard
  // exists for) must be flagged by both tiers, at the same tile.
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.dot.wavelengths = 4;
  cfg.dot.use_full_optics = true;
  cfg.guard.enabled = true;
  cfg.array_rows = 4;
  cfg.array_cols = 4;

  Rng rng(19);
  const Matrix a = Matrix::random_gaussian(8, 16, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(16, 12, rng, 0.0, 1.0);

  cfg.path = ExecutionPath::kKernel;
  const PhotonicGemm scalar_gemm(*drv, cfg);
  cfg.path = ExecutionPath::kKernelSimd;
  const PhotonicGemm simd_gemm(*drv, cfg);

  PreparedOperand pb = scalar_gemm.prepare_b(b);
  pb.encoded(5, 3) += 0.75;  // silent corruption after checksum build

  const GemmResult sr = scalar_gemm.multiply_prepared(a, pb);
  const GemmResult vr = simd_gemm.multiply_prepared(a, pb);
  EXPECT_GT(sr.guard.mismatched_tiles, 0u);
  EXPECT_GT(vr.guard.mismatched_tiles, 0u);
  EXPECT_EQ(vr.guard.mismatched_tiles, sr.guard.mismatched_tiles);
  EXPECT_EQ(vr.guard.first_mismatch, sr.guard.first_mismatch);
  // The corruption's residual dwarfs the tiers' reassociation delta.
  EXPECT_NEAR(vr.guard.worst_residual, sr.guard.worst_residual,
              1e-6 * std::max(1.0, sr.guard.worst_residual));
}

// ---------------------------------------------------------------------
// faults-layer coefficient table (faults/lane_table.hpp)

faults::LaneBankConfig bank_config(std::uint64_t seed = 11) {
  faults::LaneBankConfig cfg;
  cfg.pdac.bits = 8;
  cfg.wavelengths = 4;
  cfg.variation.tia_gain_sigma = 0.01;
  cfg.variation.bias_sigma = 0.002;
  cfg.variation.vpi_drift_sigma = 0.005;
  cfg.variation.seed = seed;
  return cfg;
}

faults::FaultSchedule storm_schedule(std::size_t lanes) {
  // A mixed storm: stuck modulator, TIA gain step and a derated receive
  // PD landing at different steps of one product.
  faults::FaultSchedule sched;
  sched.cfg.lanes = lanes;
  sched.cfg.bits = 8;
  sched.cfg.horizon_steps = 16;
  faults::FaultEvent stuck;
  stuck.step = 1;
  stuck.lane = 2;
  stuck.kind = faults::FaultKind::kStuckMrr;
  stuck.magnitude = 0.4;
  sched.events.push_back(stuck);
  faults::FaultEvent tia;
  tia.step = 3;
  tia.lane = 5;
  tia.kind = faults::FaultKind::kTiaGainStep;
  tia.magnitude = 1.3;
  tia.bit = 2;
  sched.events.push_back(tia);
  faults::FaultEvent pd;
  pd.step = 5;
  pd.lane = 1;
  pd.kind = faults::FaultKind::kDegradedPd;
  pd.magnitude = 0.7;
  sched.events.push_back(pd);
  return sched;
}

TEST(LaneEncodeTable, MatchesBankEncodesAcrossMutations) {
  faults::LaneBank bank(bank_config());
  faults::production_trim(bank);
  faults::LaneEncodeTable table;
  table.ensure(bank);
  ASSERT_TRUE(table.fresh(bank));
  faults::LaneEncodeTable golden;
  golden.rebuild(bank);  // pinned before the fault below

  const auto sweep = [&] {
    for (std::size_t rail = 0; rail < faults::LaneBank::kRails; ++rail) {
      for (std::size_t ch = 0; ch < bank.wavelengths(); ++ch) {
        for (double r : {-1.0, -0.73, -0.2, 0.0, 0.31, 0.99, 1.0, 1.7}) {
          ASSERT_EQ(table.encode(rail, ch, r), bank.encode(rail, ch, r))
              << "rail=" << rail << " ch=" << ch << " r=" << r;
        }
      }
    }
  };

  // One row covering every quantizer code, pushed through LaneEncoder on
  // every lane: the current amplitudes are the live lane's whatever the
  // table's state (fresh, stale or absent), and the golden ones come
  // from the pinned snapshot.
  const converters::Quantizer& quant = bank.quantizer();
  std::vector<double> row;
  std::vector<std::int32_t> codes;
  for (std::int32_t code = -quant.max_code(); code <= quant.max_code(); ++code) {
    row.push_back(quant.decode(code));
    codes.push_back(code);
    ASSERT_EQ(quant.encode(row.back()), code);
  }
  const auto encoder_sweep = [&](const faults::LaneEncodeTable* current) {
    std::vector<double> cur(row.size());
    std::vector<double> ref(row.size());
    for (std::size_t rail = 0; rail < faults::LaneBank::kRails; ++rail) {
      for (std::size_t ch = 0; ch < bank.wavelengths(); ++ch) {
        const std::vector<std::size_t> channels{ch};
        const faults::LaneEncoder encode{bank, channels, rail, current, &golden};
        encode(row, 0, cur, ref);
        for (std::size_t i = 0; i < row.size(); ++i) {
          ASSERT_EQ(cur[i], bank.encode(rail, ch, row[i]))
              << "rail=" << rail << " ch=" << ch << " code=" << codes[i];
          ASSERT_EQ(ref[i], golden.at(rail * bank.wavelengths() + ch, codes[i]))
              << "rail=" << rail << " ch=" << ch << " code=" << codes[i];
        }
      }
    }
  };
  sweep();
  encoder_sweep(&table);
  encoder_sweep(nullptr);

  // An injected fault bumps the epoch: the table must report stale, the
  // encoder must fall back to the live lanes until it is re-ensured, and
  // after ensure() the table serves the *faulted* transfer.
  faults::FaultInjector injector(bank, storm_schedule(bank.lanes()));
  injector.advance_to(6);
  EXPECT_FALSE(table.fresh(bank));
  encoder_sweep(&table);
  encoder_sweep(nullptr);
  table.ensure(bank);
  ASSERT_TRUE(table.fresh(bank));
  sweep();
  encoder_sweep(&table);

  // Golden stayed pinned: the stuck lane now encodes differently from it.
  bool diverged = false;
  for (const std::int32_t code : codes) {
    diverged = diverged || golden.at(2, code) != bank.lane(2).model.encode_code(code);
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
