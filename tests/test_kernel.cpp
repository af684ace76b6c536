// Tests for the fused flat-array compute kernel (ptc/kernel.hpp) and its
// supporting coefficient tables: the kernel must match the device-graph
// path BIT FOR BIT — outputs and event counts — across custom device
// chains, ragged edges and chunks, mismatched detectors, ADC settings,
// guard on/off and any thread count — and the faults-layer lane table and
// encoder must match the live lane models across fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "converters/electrical_adc.hpp"
#include "core/modulator_driver.hpp"
#include "faults/fault_injector.hpp"
#include "faults/lane_table.hpp"
#include "faults/self_test.hpp"
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

/// Authoritative reference for the kernel's dots: the device-graph
/// reduction — fresh WdmField rails per chunk, chunk position i on
/// channel i, the allocating Ddot::compute — and the scalar ADC
/// round-trip at full scale adc_full_scale or n.
double device_dot(const Ddot& ddot, const DotEngineConfig& cfg, std::span<const double> xe,
                  std::span<const double> ye) {
  const std::size_t nl = cfg.wavelengths;
  double acc = 0.0;
  for (std::size_t base = 0; base < xe.size(); base += nl) {
    const std::size_t len = std::min(nl, xe.size() - base);
    if (cfg.use_full_optics) {
      photonics::DualRail rails{photonics::WdmField(cfg.wavelengths),
                                photonics::WdmField(cfg.wavelengths)};
      for (std::size_t i = 0; i < len; ++i) {
        rails.upper.set_amplitude(i, photonics::Complex{xe[base + i], 0.0});
        rails.lower.set_amplitude(i, photonics::Complex{ye[base + i], 0.0});
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

/// One dot through the kernel's tile path: the raw value of a 1×1
/// run_tile over one-row operands.
double tile_dot(const FusedKernel& kernel, std::span<const double> xe,
                std::span<const double> ye) {
  Matrix a(1, xe.size());
  Matrix b(1, ye.size());
  std::copy(xe.begin(), xe.end(), a.row(0).begin());
  std::copy(ye.begin(), ye.end(), b.row(0).begin());
  Matrix c(1, 1);
  kernel.run_tile(Tile{0, 0, 1, 1}, a, b, c);
  return c(0, 0);
}

/// A deliberately non-default device chain: off-nominal phase, an
/// imbalanced coupler, mismatched detectors with dark current.
Ddot custom_ddot() {
  photonics::PhotodetectorConfig pp;
  pp.responsivity = 0.9 * 0.8;
  pp.dark_current = 3e-4;
  photonics::PhotodetectorConfig pm;
  pm.responsivity = 0.85;
  pm.dark_current = 1e-4;
  return Ddot(photonics::PhaseShifter(-1.41), photonics::DirectionalCoupler(0.6),
              photonics::Photodetector(pp), photonics::Photodetector(pm));
}

TEST(FusedKernel, MatchesCustomDeviceChainBitForBit) {
  // The closed-form snapshot must replay an arbitrary (imbalanced,
  // mismatched, dark-current-carrying) device chain exactly — including
  // ragged final chunks (an odd wavelength count).
  const Ddot ddot = custom_ddot();
  Rng rng(17);
  for (const bool adc : {false, true}) {
    for (const double fs : {0.0, 3.7}) {
      DotEngineConfig cfg;
      cfg.wavelengths = 3;
      cfg.use_full_optics = true;
      cfg.adc_readout = adc;
      cfg.adc_full_scale = fs;
      const FusedKernel kernel(ddot, cfg);
      ASSERT_EQ(kernel.wavelengths(), 3u);
      for (std::size_t n : {1u, 2u, 3u, 7u, 23u}) {
        const auto xe = rng.uniform_vector(n, -1.0, 1.0);
        const auto ye = rng.uniform_vector(n, -1.0, 1.0);
        EXPECT_EQ(tile_dot(kernel, xe, ye), device_dot(ddot, cfg, xe, ye))
            << "n=" << n << " adc=" << adc << " fs=" << fs;
      }
    }
  }
}

/// The SIMD tier's full-optics closed form cxx·Σx² + cyy·Σy² + cxy·Σxy +
/// dark, with its coefficients re-derived from the kernel's lane row and
/// detector (the derivation in kernel.cpp) in the kernel's operation order.
struct ClosedForm {
  double cxx, cyy, cxy, dark;

  ClosedForm(const FusedKernel& kernel, std::size_t k) {
    const LaneTransfer& ln = kernel.lane();
    const DetectorTransfer& det = kernel.detector();
    const double f2 = ln.ps_re * ln.ps_re + ln.ps_im * ln.ps_im;
    const double t2 = ln.t * ln.t;
    const double k2 = ln.jk_im * ln.jk_im;
    const std::size_t nl = kernel.wavelengths();
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
  // cyy are O(1): every raw output must be the closed form evaluated from
  // the caller's energies at its ABSOLUTE row and column.  Ragged tiles at
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
      Matrix c(m, n);
      kernel.run_tile_fast(tile, ae, be, xx, yy, c);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (!inside(tile, i, j)) {
            EXPECT_EQ(c(i, j), 0.0);
            continue;
          }
          double r = form(xx[i], yy[j], simd::dot(ae.row(i).data(), be.row(j).data(), k));
          if (adc) r = converter.sample_to_voltage(r);
          EXPECT_EQ(c(i, j), r) << "output " << i << "," << j;
        }
      }
    }
  }
}

// The tile readout contract both FusedKernel tiers share, checked against
// the scalar ADC: each ADC-on raw output is sample_to_voltage of the
// ADC-off raw value.  The rescale and tile sums are the shared fold's
// (fold_tile), checked on post-ADC tiles below.
namespace readout_check {

/// Output shape the tiles below cut into.
constexpr std::size_t kRows = 9;
constexpr std::size_t kCols = 12;

/// Ragged tiles of 1 to 11 columns at nonzero row0/col0 — whole 4-wide
/// column blocks and every tail — as (row0, col0, rows, cols).
constexpr Tile kTiles[] = {{1, 1, 2, 1}, {2, 3, 3, 6}, {3, 2, 1, 7}, {4, 1, 5, 11},
                           {6, 4, 3, 8}, {5, 9, 2, 3}, {7, 2, 2, 4}};

/// Runs `run(kernel, tile, c)` on the ADC-on and the ADC-off kernel of
/// one chain over every tile and checks the ADC-on raw values against
/// `adc`, the scalar converter at the tiles' full scale; untouched
/// outputs stay 0.
template <typename Run>
void expect_span_readout(const FusedKernel& on, const FusedKernel& off,
                         const converters::ElectricalAdc& adc, const Run& run) {
  for (const Tile& tile : kTiles) {
    SCOPED_TRACE(testing::Message() << "tile at " << tile.row0 << "," << tile.col0 << ", "
                                    << tile.cols << " columns");
    Matrix raw(kRows, kCols);
    run(off, tile, raw);
    Matrix c(kRows, kCols);
    run(on, tile, c);
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t j = 0; j < kCols; ++j) {
        const bool in = i >= tile.row0 && i < tile.row0 + tile.rows && j >= tile.col0 &&
                        j < tile.col0 + tile.cols;
        const double v = in ? adc.sample_to_voltage(raw(i, j)) : 0.0;
        distinct += v != raw(i, j) ? 1 : 0;
        EXPECT_EQ(c(i, j), v) << "output " << i << "," << j;
      }
    }
    EXPECT_GT(distinct, 0u) << "the ADC rounded nothing";
  }
}

}  // namespace readout_check

TEST(FusedKernel, SpanReadoutEqualsScalarAdcOnDoubleTiers) {
  // run_tile and run_tile_fast read each tile row out through the span
  // ADC: every raw output must be the scalar round trip of the ADC-off
  // raw value.  Full optics on the imbalanced chain and the amplitude
  // domain, at auto and fixed full scale.
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
            on, off, adc, [&](const FusedKernel& kernel, const Tile& tile, Matrix& c) {
              kernel.run_tile(tile, ae, be, c);
            });
      }
      {
        SCOPED_TRACE("run_tile_fast");
        readout_check::expect_span_readout(
            on, off, adc, [&](const FusedKernel& kernel, const Tile& tile, Matrix& c) {
              kernel.run_tile_fast(tile, ae, be, xx, yy, c);
            });
      }
    }
  }
}

TEST(FusedKernel, ColumnBlockWalkEqualsPerOutputDots) {
  // A multi-row call walks 4-column blocks outermost and rows innermost:
  // a 3×13 rectangle at k = 37 (three full blocks and a one-column tail,
  // offset off the block grid) must equal one 1×1 call per output on
  // both tiers, with full optics and ADC readout on and off.
  const Ddot ddot = custom_ddot();
  const std::size_t k = 37;
  Rng rng(83);
  Matrix ae(5, k);
  Matrix be(16, k);
  for (double& v : ae.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : be.data()) v = rng.uniform(-1.0, 1.0);
  const Tile rect{1, 2, 3, 13};
  for (const bool optics : {false, true}) {
    for (const bool adc : {false, true}) {
      DotEngineConfig cfg;
      cfg.wavelengths = 5;
      cfg.use_full_optics = optics;
      cfg.adc_readout = adc;
      const FusedKernel kernel(ddot, cfg);
      std::vector<double> xx(ae.rows());
      std::vector<double> yy(be.rows());
      for (std::size_t i = 0; i < xx.size(); ++i) xx[i] = kernel.energy(ae.row(i));
      for (std::size_t j = 0; j < yy.size(); ++j) yy[j] = kernel.energy(be.row(j));
      for (const bool fast : {false, true}) {
        SCOPED_TRACE(testing::Message() << "optics " << optics << " adc " << adc << " fast "
                                        << fast);
        const auto run = [&](const Tile& tile, Matrix& c) {
          if (fast) {
            kernel.run_tile_fast(tile, ae, be, xx, yy, c);
          } else {
            kernel.run_tile(tile, ae, be, c);
          }
        };
        Matrix whole(ae.rows(), be.rows(), -1.0);
        run(rect, whole);
        Matrix single(ae.rows(), be.rows(), -1.0);
        for (std::size_t i = rect.row0; i < rect.row0 + rect.rows; ++i) {
          for (std::size_t j = rect.col0; j < rect.col0 + rect.cols; ++j) {
            run(Tile{i, j, 1, 1}, single);
          }
        }
        // Outside the rectangle both still hold the fill.
        expect_bit_identical(whole, single);
      }
    }
  }
}

TEST(FusedKernel, FoldTileSumsPostAdcValuesInRowMajorOrder) {
  // The shared fold both executors run on a finished tile: every output
  // becomes raw · rescale, and the tile sums — reset first, whatever the
  // scratch held — receive the raw post-ADC values in row-major order.
  // Without sum spans only the rescale runs.
  const Ddot ddot = custom_ddot();
  const std::size_t k = 23;
  Rng rng(73);
  Matrix ae(readout_check::kRows, k);
  Matrix be(readout_check::kCols, k);
  for (double& v : ae.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : be.data()) v = rng.uniform(-1.0, 1.0);
  DotEngineConfig cfg;
  cfg.wavelengths = 5;
  cfg.use_full_optics = true;
  cfg.adc_readout = true;
  const FusedKernel kernel(ddot, cfg);
  const double rescale = 0.75;
  for (const Tile& tile : readout_check::kTiles) {
    SCOPED_TRACE(testing::Message() << "tile at " << tile.row0 << "," << tile.col0);
    Matrix raw(readout_check::kRows, readout_check::kCols);
    kernel.run_tile(tile, ae, be, raw);
    for (const bool sums : {false, true}) {
      Matrix c = raw;
      std::vector<double> rsum(sums ? tile.rows : 0, 7.0);
      std::vector<double> csum(sums ? tile.cols : 0, -3.0);
      fold_tile(tile, rescale, c, rsum, csum);
      std::vector<double> want_rsum(tile.rows, 0.0);
      std::vector<double> want_csum(tile.cols, 0.0);
      for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
        for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
          EXPECT_EQ(c(i, j), raw(i, j) * rescale) << "output " << i << "," << j;
          want_rsum[i - tile.row0] += raw(i, j);
          want_csum[j - tile.col0] += raw(i, j);
        }
      }
      if (sums) {
        EXPECT_EQ(rsum, want_rsum);
        EXPECT_EQ(csum, want_csum);
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
  EXPECT_EQ(tile_dot(kernel, xe, ye), device_dot(ddot, cfg, xe, ye));
}

TEST(FusedKernel, EventChargesMatchDotPreencoded) {
  // A 1×1 run_tile equals the device dot bit for bit, and the detection,
  // DDot-op and MAC charges dot_preencoded counts from the chunks it ran
  // equal the tile-step closed form the kernel tiers are charged.
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
    EventCounter dev_ev;
    const double want = engine.dot_preencoded(xe, ye, &dev_ev);
    EXPECT_EQ(tile_dot(kernel, xe, ye), want) << "n=" << n;
    const EventCounter step = tile_step_events(1, 1, n, kernel.wavelengths(),
                                               Residency::kBroadcast, kSamplePerOutput);
    EXPECT_EQ(dev_ev.detection_events, step.detection_events);
    EXPECT_EQ(dev_ev.ddot_ops, step.ddot_ops);
    EXPECT_EQ(dev_ev.macs, step.macs);
  }
}

TEST(FusedKernel, DdotScratchOverloadsBitIdentical) {
  // The allocation-free Ddot overloads (satellite of the kernel work)
  // must match the allocating ones bit for bit, including scratch reuse
  // across differently-shaped calls.
  const Ddot ddot = custom_ddot();
  Rng rng(41);
  DdotScratch scratch;
  for (std::size_t n : {6u, 3u, 6u, 1u}) {  // shrink then regrow the scratch
    photonics::DualRail rails{photonics::WdmField(n), photonics::WdmField(n)};
    for (std::size_t ch = 0; ch < n; ++ch) {
      rails.upper.set_amplitude(ch, photonics::Complex{rng.uniform(-1.0, 1.0), 0.0});
      rails.lower.set_amplitude(ch, photonics::Complex{rng.uniform(-1.0, 1.0), 0.0});
    }
    const DdotReading plain = ddot.compute(rails);
    const DdotReading staged = ddot.compute(rails, scratch);
    EXPECT_EQ(plain.i_plus, staged.i_plus);
    EXPECT_EQ(plain.i_minus, staged.i_minus);

    const auto xs = rng.uniform_vector(n, -1.0, 1.0);
    const auto ys = rng.uniform_vector(n, -1.0, 1.0);
    const DdotReading span_plain = ddot.compute(xs, ys);
    const DdotReading span_staged = ddot.compute(xs, ys, scratch);
    EXPECT_EQ(span_plain.i_plus, span_staged.i_plus);
    EXPECT_EQ(span_plain.i_minus, span_staged.i_minus);
  }
}

/// One fuzz draw of a GEMM configuration (shape, wavelength count,
/// optics/ADC/guard switches, array geometry, thread count).
struct FuzzCase {
  std::size_t m, k, n;
  GemmConfig cfg;
};

FuzzCase draw_case(Rng& rng) {
  FuzzCase fc;
  fc.m = static_cast<std::size_t>(rng.integer(1, 20));
  fc.k = static_cast<std::size_t>(rng.integer(1, 33));
  fc.n = static_cast<std::size_t>(rng.integer(1, 20));
  // Any count from 1 to 9: odd and non-dividing counts give ragged chunks.
  fc.cfg.dot.wavelengths = static_cast<std::size_t>(rng.integer(1, 9));
  fc.cfg.dot.use_full_optics = rng.integer(0, 1) == 1;
  fc.cfg.dot.adc_readout = rng.integer(0, 1) == 1;
  fc.cfg.dot.adc_full_scale = rng.integer(0, 1) == 1 ? 2.5 : 0.0;
  fc.cfg.array_rows = static_cast<std::size_t>(rng.integer(1, 8));
  fc.cfg.array_cols = static_cast<std::size_t>(rng.integer(1, 8));
  fc.cfg.threads = static_cast<std::size_t>(rng.integer(1, 4));
  fc.cfg.guard.enabled = rng.integer(0, 1) == 1;
  return fc;
}

TEST(KernelGemmEquivalence, FuzzMultiplyBitIdentical) {
  // The tentpole contract: across random shapes, wavelength counts,
  // optics/ADC settings, guard on/off and thread counts, the kernel path and the device-graph path produce the same
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
  GuardConfig g;  // the band's fixed slack and z-score
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

TEST(KernelSimdTier, AddRowsEqualsTheScalarFold) {
  // simd::add_rows is every checksum stripe's fold, so each position must
  // take its rows' adds in ascending row order onto what the accumulator
  // holds, bit for bit, NaN exactly where that loop gives NaN, on
  // whichever ISA is live.  Row counts 0–9; lengths 0–19 (every tail of
  // the 8-position blocks), 768 and 3072; rows packed back to back or 5
  // doubles apart (the gaps hold a sentinel a wrong stride would add in);
  // rows and accumulator 0–3 doubles into their buffers; accumulators
  // from zero, from plain values, and from NaN, ±Inf and −0 among plain
  // values; rows plain, tiny (subnormal sums, ±0), or with NaN, ±Inf, −0
  // and a subnormal sprinkled into plain values.
  SCOPED_TRACE(std::string("isa ") + simd::active_isa());
  const auto fold = [](const double* rows, std::size_t stride, std::size_t count, std::size_t n,
                       double* acc) {
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t p = 0; p < n; ++p) acc[p] += rows[r * stride + p];
    }
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kTrue = std::numeric_limits<double>::denorm_min();
  const double row_specials[] = {kNaN, kInf, -kInf, -0.0, 3.0 * kTrue};
  const double tiny_specials[] = {0.0, -0.0, kTrue, -kTrue};
  const double acc_specials[] = {kNaN, kInf, -kInf, -0.0};
  Rng rng(97);
  const auto pick = [&](const auto& from) {
    const auto last = static_cast<std::int64_t>(std::size(from)) - 1;
    return from[static_cast<std::size_t>(rng.integer(0, last))];
  };
  const auto draw_row = [&](int regime) {
    const double u = rng.uniform(-1.0, 1.0);
    if (regime == 1) return rng.uniform(0.0, 1.0) < 0.25 ? pick(tiny_specials) : u * 0x1p-1060;
    if (regime == 2 && rng.uniform(0.0, 1.0) < 0.05) return pick(row_specials);
    return u;
  };
  const auto draw_acc = [&](int start) {
    if (start == 0) return 0.0;
    if (start == 2 && rng.uniform(0.0, 1.0) < 0.25) return pick(acc_specials);
    return rng.uniform(-1.0, 1.0);
  };
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 20; ++n) lengths.push_back(n);
  for (const std::size_t n : {768u, 3072u}) lengths.push_back(n);
  constexpr std::size_t kMaxRows = 9;
  constexpr double kSentinel = 12345.0;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::size_t nan_results = 0, inf_results = 0, subnormal_results = 0, negzero_results = 0;
  for (const std::size_t n : lengths) {
    for (const std::size_t gap : {0u, 5u}) {
      const std::size_t stride = n + gap;
      for (std::size_t offset = 0; offset < 4; ++offset) {
        for (int regime = 0; regime < 3; ++regime) {
          std::vector<double> storage(offset + kMaxRows * stride, kSentinel);
          const double* const rows = storage.data() + offset;
          for (std::size_t r = 0; r < kMaxRows; ++r) {
            for (std::size_t p = 0; p < n; ++p) storage[offset + r * stride + p] = draw_row(regime);
          }
          for (int start = 0; start < 3; ++start) {
            // Sentinels before and after the span catch a stray write.
            std::vector<double> init(offset + n + 1, kSentinel);
            for (std::size_t p = offset; p < offset + n; ++p) {
              init[p] = regime == 1 && start == 1 ? draw_row(1) : draw_acc(start);
            }
            for (std::size_t count = 0; count <= kMaxRows; ++count) {
              std::vector<double> got = init;
              std::vector<double> want = init;
              simd::add_rows(rows, stride, count, n, got.data() + offset);
              fold(rows, stride, count, n, want.data() + offset);
              for (std::size_t i = 0; i < got.size(); ++i) {
                const std::string where =
                    "n " + std::to_string(n) + " stride " + std::to_string(stride) + " offset " +
                    std::to_string(offset) + " regime " + std::to_string(regime) + " start " +
                    std::to_string(start) + " rows " + std::to_string(count) + " at " +
                    std::to_string(i);
                if (std::isnan(want[i])) {
                  ++nan_results;
                  ASSERT_TRUE(std::isnan(got[i])) << where << ": " << got[i];
                  continue;
                }
                if (std::isinf(want[i])) ++inf_results;
                if (want[i] != 0.0 && std::abs(want[i]) < std::numeric_limits<double>::min()) {
                  ++subnormal_results;
                }
                if (bits(want[i]) == bits(-0.0)) ++negzero_results;
                ASSERT_EQ(bits(got[i]), bits(want[i])) << where << ": " << got[i] << " vs "
                                                       << want[i];
              }
            }
          }
        }
      }
    }
  }
  // Every special case was reached.
  EXPECT_GT(nan_results, 0u);
  EXPECT_GT(inf_results, 0u);
  EXPECT_GT(subnormal_results, 0u);
  EXPECT_GT(negzero_results, 0u);

  // Order matters: in ascending row order 1 + 2⁻⁵³ rounds back to 1
  // twice, while the rows summed in descending order add the two 2⁻⁵³
  // first and land on 1 + 2⁻⁵², so a rewrite that reassociates the rows
  // gives other bits — in the 8-position blocks and in the tail alike.
  const double descending = ((0.0 + 0x1p-53) + 0x1p-53) + 1.0;
  ASSERT_NE(descending, 1.0);
  for (const std::size_t n : {16u, 19u}) {
    std::vector<double> ordered(3 * n, 0x1p-53);
    std::fill_n(ordered.begin(), n, 1.0);
    std::vector<double> got(n, 0.0);
    simd::add_rows(ordered.data(), n, 3, n, got.data());
    for (std::size_t p = 0; p < n; ++p) EXPECT_EQ(got[p], 1.0) << "n " << n << " at " << p;
  }
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

  // One row covering every quantizer code, pushed through LaneEncoder on
  // every lane: the current amplitudes are the live lane's, read from the
  // fresh table, and the golden ones come from the pinned snapshot.  An
  // encoder refuses a table that is stale or was never built.
  const converters::Quantizer& quant = bank.quantizer();
  std::vector<double> row;
  std::vector<std::int32_t> codes;
  for (std::int32_t code = -quant.max_code(); code <= quant.max_code(); ++code) {
    row.push_back(quant.decode(code));
    codes.push_back(code);
    ASSERT_EQ(quant.encode(row.back()), code);
  }
  const auto sweep = [&] {
    for (std::size_t flat = 0; flat < bank.lanes(); ++flat) {
      for (const std::int32_t code : codes) {
        ASSERT_EQ(table.at(flat, code), bank.lane(flat).model.encode_code(code))
            << "lane=" << flat << " code=" << code;
      }
    }
  };
  const auto encoder_sweep = [&](const faults::LaneEncodeTable& current) {
    std::vector<double> cur(row.size());
    std::vector<double> ref(row.size());
    for (std::size_t rail = 0; rail < faults::LaneBank::kRails; ++rail) {
      for (std::size_t ch = 0; ch < bank.wavelengths(); ++ch) {
        const std::vector<std::size_t> channels{ch};
        const faults::LaneEncoder encode{bank, channels, rail, current, &golden};
        encode(row, cur, ref);
        for (std::size_t i = 0; i < row.size(); ++i) {
          ASSERT_EQ(cur[i], bank.encode(rail, ch, row[i]))
              << "rail=" << rail << " ch=" << ch << " code=" << codes[i];
          ASSERT_EQ(ref[i], golden.at(rail * bank.wavelengths() + ch, codes[i]))
              << "rail=" << rail << " ch=" << ch << " code=" << codes[i];
        }
      }
    }
  };
  const std::vector<std::size_t> all = bank.surviving_channels();
  sweep();
  encoder_sweep(table);
  const faults::LaneEncodeTable absent;
  EXPECT_THROW((void)faults::LaneEncoder(bank, all, 0, absent, &golden), PreconditionError);

  // An injected fault bumps the epoch: the table must report stale, an
  // encoder must refuse it until it is re-ensured, and after ensure() the
  // table serves the *faulted* transfer.
  faults::FaultInjector injector(bank, storm_schedule(bank.lanes()));
  injector.advance_to(6);
  EXPECT_FALSE(table.fresh(bank));
  EXPECT_THROW((void)faults::LaneEncoder(bank, all, 1, table, &golden), PreconditionError);
  table.ensure(bank);
  ASSERT_TRUE(table.fresh(bank));
  sweep();
  encoder_sweep(table);

  // Golden stayed pinned: the stuck lane now encodes differently from it.
  bool diverged = false;
  for (const std::int32_t code : codes) {
    diverged = diverged || golden.at(2, code) != bank.lane(2).model.encode_code(code);
  }
  EXPECT_TRUE(diverged);
}

// The table path equals the live lane models bit for bit, checked
// against model.encode_code directly: an encoder built on the fresh
// table, over a 5-of-8 channel packing, span lengths 0, 1, 4, 5 and 768,
// encoding normalized values and decoding their codes, with and without
// a golden reference — on a bank whose faults make current and golden
// differ on both rails.  Once the epoch moves with the lane state
// unchanged, the stale table is refused.
TEST(LaneEncodeTable, TablePathEqualsLiveModelsBitForBit) {
  faults::LaneBankConfig cfg = bank_config(23);
  cfg.wavelengths = 8;
  faults::LaneBank bank(cfg);
  faults::production_trim(bank);
  faults::LaneEncodeTable golden;
  golden.rebuild(bank);  // pinned before the faults below
  faults::FaultSchedule sched;
  sched.cfg.lanes = bank.lanes();
  sched.cfg.bits = 8;
  sched.cfg.horizon_steps = 4;
  faults::FaultEvent stuck;
  stuck.step = 1;
  stuck.lane = 8 + 2;  // rail 1, channel 2
  stuck.kind = faults::FaultKind::kStuckMrr;
  stuck.magnitude = 0.4;
  sched.events.push_back(stuck);
  faults::FaultEvent tia;
  tia.step = 1;
  tia.lane = 3;  // rail 0, channel 3
  tia.kind = faults::FaultKind::kTiaGainStep;
  tia.magnitude = 1.3;
  tia.bit = 2;
  sched.events.push_back(tia);
  faults::FaultInjector injector(bank, sched);
  injector.advance_to(2);
  faults::LaneEncodeTable table;

  const std::vector<std::size_t> channels{0, 2, 3, 5, 7};
  Rng rng(5);
  std::vector<double> norm(768);
  for (double& v : norm) v = rng.uniform(-1.2, 1.2);
  norm[5] = std::numeric_limits<double>::quiet_NaN();
  norm[6] = std::numeric_limits<double>::infinity();
  norm[7] = -std::numeric_limits<double>::infinity();
  norm[8] = -0.0;
  const converters::Quantizer& quant = bank.quantizer();
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };

  for (std::size_t rail = 0; rail < faults::LaneBank::kRails; ++rail) {
    table.ensure(bank);
    ASSERT_TRUE(table.fresh(bank));
    const faults::LaneEncoder tabled(bank, channels, rail, table, &golden);
    std::size_t diverged = 0;
    for (const std::size_t len : {0u, 1u, 4u, 5u, 768u}) {
      for (const bool decode : {false, true}) {
        for (const bool with_ref : {false, true}) {
          SCOPED_TRACE(testing::Message() << "rail " << rail << " len " << len << " decode "
                                          << decode << " reference " << with_ref);
          const std::span<const double> in(norm.data(), len);
          std::vector<std::int16_t> codes(len);
          for (std::size_t i = 0; i < len; ++i) {
            codes[i] = static_cast<std::int16_t>(quant.encode(in[i]));
          }
          std::vector<double> cur_t(len, 9.0), ref_t(len, 9.0);
          const std::span<double> ref_ts =
              with_ref ? std::span<double>(ref_t) : std::span<double>{};
          if (decode) {
            tabled.decode(codes, cur_t, ref_ts);
          } else {
            tabled(in, cur_t, ref_ts);
          }
          for (std::size_t i = 0; i < len; ++i) {
            const std::size_t flat = rail * bank.wavelengths() + channels[i % 5];
            const std::int32_t code = codes[i];
            ASSERT_EQ(bits(cur_t[i]), bits(bank.lane(flat).model.encode_code(code))) << i;
            if (with_ref) {
              ASSERT_EQ(bits(ref_t[i]), bits(golden.at(flat, code))) << i;
              diverged += cur_t[i] != ref_t[i];
            } else {
              ASSERT_EQ(ref_t[i], 9.0);  // no reference asked for, none written
            }
          }
        }
      }
    }
    EXPECT_GT(diverged, 0u) << "the faults must make current and golden differ on rail " << rail;
    bank.bump_epoch();  // stale table, unchanged lanes
    ASSERT_FALSE(table.fresh(bank));
    EXPECT_THROW((void)faults::LaneEncoder(bank, channels, rail, table, &golden),
                 PreconditionError);
  }
}

// A table refreshes only the lanes whose model stamp moved; every entry
// must still be what a full build writes.  The lane executor's order is
// followed: golden pinned at construction, the current table built after
// it, then a stuck MRR, a TIA gain step, a bias walk over every lane, a
// re-trim (golden re-pinned, then the current table refreshed), a fence,
// and a rebuild against another bank geometry.
TEST(LaneEncodeTable, PerLaneRefreshEqualsAFullBuild) {
  faults::LaneBank bank(bank_config(29));
  faults::production_trim(bank);
  faults::LaneEncodeTable golden;
  golden.rebuild(bank);
  faults::LaneEncodeTable table;
  table.ensure(bank);
  const converters::Quantizer& quant = bank.quantizer();
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto expect_full_build_equal = [&](const faults::LaneEncodeTable& got,
                                        const faults::LaneBank& from, const char* what) {
    faults::LaneEncodeTable full;
    full.rebuild(from);
    std::size_t differ = 0;
    for (std::size_t flat = 0; flat < from.lanes(); ++flat) {
      for (std::int32_t code = -quant.max_code(); code <= quant.max_code(); ++code) {
        differ += bits(got.at(flat, code)) != bits(full.at(flat, code));
      }
    }
    EXPECT_EQ(differ, 0u) << what;
  };
  expect_full_build_equal(golden, bank, "golden at construction");
  expect_full_build_equal(table, bank, "current table at construction");

  faults::FaultSchedule sched;
  sched.cfg.lanes = bank.lanes();
  sched.cfg.bits = 8;
  sched.cfg.horizon_steps = 8;
  faults::FaultEvent stuck;
  stuck.step = 1;
  stuck.lane = 2;
  stuck.kind = faults::FaultKind::kStuckMrr;
  stuck.magnitude = 0.4;
  sched.events.push_back(stuck);
  faults::FaultEvent tia;
  tia.step = 2;
  tia.lane = 5;
  tia.kind = faults::FaultKind::kTiaGainStep;
  tia.magnitude = 1.3;
  tia.bit = 6;
  sched.events.push_back(tia);
  faults::FaultInjector injector(bank, sched);
  const faults::LaneEncodeTable pinned = golden;
  for (const std::uint64_t step : {1u, 2u}) {
    injector.advance_to(step);
    ASSERT_FALSE(table.fresh(bank)) << step;
    table.ensure(bank);
    expect_full_build_equal(table, bank, step == 1 ? "after a stuck MRR" : "after a TIA gain step");
  }

  // A bias walk moves every lane's stamp each step.
  faults::FaultSchedule walk;
  walk.cfg = sched.cfg;
  walk.cfg.bias_walk_sigma_per_step = 2e-3;
  faults::FaultInjector walker(bank, walk);
  walker.advance_to(3);
  table.ensure(bank);
  expect_full_build_equal(table, bank, "after a bias walk");

  // Golden stayed pinned through all of it.
  std::size_t pinned_differ = 0;
  for (std::size_t flat = 0; flat < bank.lanes(); ++flat) {
    for (std::int32_t code = -quant.max_code(); code <= quant.max_code(); ++code) {
      pinned_differ += bits(golden.at(flat, code)) != bits(pinned.at(flat, code));
    }
  }
  EXPECT_EQ(pinned_differ, 0u);

  // A re-trim: golden re-pins past a stale current table, and the current
  // table then refreshes.
  std::vector<std::size_t> every_lane(bank.lanes());
  for (std::size_t l = 0; l < bank.lanes(); ++l) every_lane[l] = l;
  const faults::SelfTestReport retrim = faults::run_self_test(bank, every_lane, {});
  EXPECT_GT(retrim.retrims, 0u);
  golden.rebuild(bank);
  expect_full_build_equal(golden, bank, "golden re-pinned after a re-trim");
  table.ensure(bank);
  expect_full_build_equal(table, bank, "current table after a re-trim");

  // A fence moves the epoch and no lane's stamp.
  bank.lane(1).fenced = true;
  bank.bump_epoch();
  table.ensure(bank);
  ASSERT_TRUE(table.fresh(bank));
  expect_full_build_equal(table, bank, "after a fence");
  golden.rebuild(bank);
  expect_full_build_equal(golden, bank, "golden re-pinned after a fence");

  // Another geometry evaluates every lane.
  faults::LaneBankConfig wide = bank_config(29);
  wide.wavelengths = 6;
  const faults::LaneBank other(wide);
  table.rebuild(other);
  ASSERT_TRUE(table.fresh(other));
  expect_full_build_equal(table, other, "after a geometry change");
}

}  // namespace
