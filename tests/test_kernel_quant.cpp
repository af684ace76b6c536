// Integer quant tier (ExecutionPath::kKernelQuant, DESIGN.md §15):
// exact int16-code dot kernels, the on-grid precondition machinery, the
// banded-identity contract vs the scalar kernel, and the off-grid lanes
// that keep the faults layer off the integer tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "converters/quantizer.hpp"
#include "core/modulator_driver.hpp"
#include "faults/guarded_backend.hpp"
#include "faults/lane_bank.hpp"
#include "nn/backend.hpp"
#include "ptc/abft.hpp"
#include "ptc/gemm_engine.hpp"
#include "ptc/kernel.hpp"
#include "readout_check.hpp"

namespace {

using namespace pdac;

std::vector<std::int16_t> random_codes(std::size_t n, std::int32_t max_abs, Rng& rng) {
  std::vector<std::int16_t> v(n);
  for (auto& c : v) {
    c = static_cast<std::int16_t>(
        std::lround(rng.uniform(-static_cast<double>(max_abs), static_cast<double>(max_abs))));
  }
  return v;
}

std::int64_t naive_dot(const std::vector<std::int16_t>& x, const std::vector<std::int16_t>& y) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += static_cast<std::int64_t>(x[i]) * static_cast<std::int64_t>(y[i]);
  }
  return acc;
}

// --- integer dot kernels: exact, ISA-independent ---------------------------

TEST(KernelQuant, IntDotMatchesNaiveInt64) {
  Rng rng(11);
  // Lengths straddle the 16-lane SIMD width and its tails; max_abs
  // values cover narrow (4-bit) through full int16 operands.
  const std::size_t lengths[] = {0, 1, 3, 4, 15, 16, 17, 31, 64, 333, 1024};
  const std::int32_t mags[] = {7, 127, 2047, 32767};
  for (const std::size_t n : lengths) {
    for (const std::int32_t mc : mags) {
      const auto x = random_codes(n, mc, rng);
      const auto y = random_codes(n, mc, rng);
      EXPECT_EQ(simd::dot_i16(x.data(), y.data(), n, mc), naive_dot(x, y))
          << "n=" << n << " mc=" << mc;
      EXPECT_EQ(simd::dot_self_i16(x.data(), n, mc), naive_dot(x, x))
          << "n=" << n << " mc=" << mc;
    }
  }
}

TEST(KernelQuant, IntDotMaxMagnitudeDrainStress) {
  // Every element at ±32767 forces the int32 accumulator to its drain
  // cadence of one madd per widen — the worst case the overflow bound
  // (2 · max_abs² per 16-lane fold) is derived for.
  const std::size_t n = 4999;
  std::vector<std::int16_t> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = (i % 2 == 0) ? std::int16_t{32767} : std::int16_t{-32767};
    y[i] = (i % 3 == 0) ? std::int16_t{-32767} : std::int16_t{32767};
  }
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::int64_t>(x[i]) * static_cast<std::int64_t>(y[i]);
  }
  EXPECT_EQ(simd::dot_i16(x.data(), y.data(), n, 32767), acc);
  EXPECT_EQ(simd::dot_self_i16(x.data(), n, 32767),
            static_cast<std::int64_t>(32767) * 32767 * static_cast<std::int64_t>(n));
}

TEST(KernelQuant, FourWayDotMatchesSingle) {
  Rng rng(12);
  const std::int32_t mc = 127;
  for (const std::size_t n : {5ul, 16ul, 100ul, 767ul}) {
    const auto x = random_codes(n, mc, rng);
    std::vector<std::vector<std::int16_t>> ys;
    for (int j = 0; j < 4; ++j) ys.push_back(random_codes(n, mc, rng));
    const std::int16_t* yp[4] = {ys[0].data(), ys[1].data(), ys[2].data(), ys[3].data()};
    std::int64_t out[4] = {0, 0, 0, 0};
    simd::dot4_i16(x.data(), yp, n, mc, out);
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(out[j], simd::dot_i16(x.data(), ys[j].data(), n, mc)) << "j=" << j;
    }
  }
}

// --- on-grid precondition machinery ----------------------------------------

TEST(KernelQuant, BitTrueDriverIsOnGridAndLadderSelectsIt) {
  // The bit-true chain encodes exactly onto the quantizer grid, so the
  // runtime ladder picks the quant tier for it — and must never pick it
  // for the transcendental P-DAC / ideal-DAC transfers.
  const auto bt = core::make_bit_true_driver(8);
  const converters::Quantizer q(8);
  for (std::int32_t c = -q.max_code(); c <= q.max_code(); ++c) {
    EXPECT_EQ(bt->encode(q.decode(c)), q.decode(c)) << "code " << c;
  }
  EXPECT_EQ(nn::fastest_gemm_config(*bt).path, ptc::ExecutionPath::kKernelQuant);
  EXPECT_NE(nn::fastest_gemm_config(*core::make_pdac_driver(8)).path,
            ptc::ExecutionPath::kKernelQuant);
  EXPECT_NE(nn::fastest_gemm_config(*core::make_ideal_dac_driver(8)).path,
            ptc::ExecutionPath::kKernelQuant);
}

TEST(KernelQuant, ConstructionRejectsOffGridDriver) {
  const auto drv = core::make_pdac_driver(8);
  ptc::GemmConfig cfg = nn::quant_gemm_config();
  EXPECT_THROW((void)ptc::PhotonicGemm(*drv, cfg), PreconditionError);
}

TEST(KernelQuant, PreparedOperandCarriesMatchingCodes) {
  Rng rng(21);
  const auto drv = core::make_bit_true_driver(8);
  const ptc::PhotonicGemm gemm(*drv, nn::quant_gemm_config());
  const Matrix b = Matrix::random_gaussian(37, 11, rng, 0.0, 1.0);
  const ptc::PreparedOperand pb = gemm.prepare_b(b);
  const converters::Quantizer& q = gemm.engine().quantizer();
  ASSERT_EQ(pb.qcodes.rows(), b.cols());
  ASSERT_EQ(pb.qcodes.cols(), b.rows());
  // decode(code) must reproduce the double encoding bit for bit — the
  // codes ARE the operand, at a quarter of the bytes.
  for (std::size_t r = 0; r < pb.qcodes.rows(); ++r) {
    const auto enc = pb.encoded.row(r);
    const auto codes = pb.qcodes.row(r);
    for (std::size_t p = 0; p < pb.qcodes.cols(); ++p) {
      EXPECT_EQ(q.decode(codes[p]), enc[p]) << "r=" << r << " p=" << p;
    }
  }
}

TEST(KernelQuant, MultiplyPreparedRejectsDoubleTierOperand) {
  Rng rng(22);
  const auto drv = core::make_bit_true_driver(8);
  const ptc::PhotonicGemm scalar_gemm(*drv, ptc::GemmConfig{});
  const ptc::PhotonicGemm quant_gemm(*drv, nn::quant_gemm_config());
  const Matrix a = Matrix::random_gaussian(4, 20, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(20, 6, rng, 0.0, 1.0);
  const ptc::PreparedOperand pb = scalar_gemm.prepare_b(b);  // no codes staged
  EXPECT_THROW((void)quant_gemm.multiply_prepared(a, pb), PreconditionError);
}

TEST(KernelQuant, SpanReadoutEqualsScalarAdc) {
  // run_tile_quant's half of the readout contract: each ADC-on output is
  // the scalar round trip of the ADC-off raw value, rescaled, and the tile
  // sums fold the post-ADC values in ascending order.  Full optics and the
  // amplitude domain, at auto and fixed full scale.
  const auto drv = core::make_bit_true_driver(8);
  const std::size_t k = 23;
  Rng rng(73);
  const std::int32_t mc = converters::Quantizer(8).max_code();
  CodeMatrix aq(readout_check::kRows, k);
  CodeMatrix bq(readout_check::kCols, k);
  for (std::size_t i = 0; i < aq.rows(); ++i) {
    const auto row = random_codes(k, mc, rng);
    std::copy(row.begin(), row.end(), aq.row(i).begin());
  }
  for (std::size_t j = 0; j < bq.rows(); ++j) {
    const auto row = random_codes(k, mc, rng);
    std::copy(row.begin(), row.end(), bq.row(j).begin());
  }
  for (const bool optics : {false, true}) {
    for (const double fs : {0.0, 0.4}) {
      SCOPED_TRACE(testing::Message() << "optics " << optics << ", full scale " << fs);
      ptc::DotEngineConfig cfg;
      cfg.wavelengths = 5;
      cfg.use_full_optics = optics;
      cfg.adc_full_scale = fs;
      const ptc::PhotonicDotEngine engine_off(*drv, cfg);
      cfg.adc_readout = true;
      const ptc::PhotonicDotEngine engine_on(*drv, cfg);
      const ptc::FusedKernel off(engine_off);
      const ptc::FusedKernel on(engine_on);
      ASSERT_TRUE(on.quant_ready());
      std::vector<double> xx(aq.rows());
      std::vector<double> yy(bq.rows());
      for (std::size_t i = 0; i < xx.size(); ++i) xx[i] = on.energy(aq.row(i));
      for (std::size_t j = 0; j < yy.size(); ++j) yy[j] = on.energy(bq.row(j));
      converters::ElectricalAdcConfig ac;
      ac.bits = cfg.adc_bits;
      ac.v_ref = fs > 0.0 ? fs : static_cast<double>(k);
      readout_check::expect_span_readout(
          on, off, converters::ElectricalAdc(ac),
          [&](const ptc::FusedKernel& kernel, const ptc::Tile& tile, double rescale, Matrix& c,
              double* rsum, double* csum) {
            kernel.run_tile_quant(tile, aq, bq, xx, yy, rescale, c, rsum, csum);
          });
    }
  }
}

// --- banded identity vs the scalar kernel ----------------------------------

void expect_band_identity(bool full_optics) {
  Rng rng(31);
  ptc::GemmConfig base;
  base.dot.use_full_optics = full_optics;
  base.dot.adc_readout = full_optics;  // exercise both readout modes
  const auto drv = core::make_bit_true_driver(8);
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 768, 768}, {12, 128, 64}, {5, 333, 17}};
  for (const auto& s : shapes) {
    const Matrix a = Matrix::random_gaussian(s.m, s.k, rng, 0.0, 1.0);
    const Matrix b = Matrix::random_gaussian(s.k, s.n, rng, 0.0, 1.0);
    const ptc::PhotonicGemm scalar_gemm(*drv, base);
    const ptc::PhotonicGemm quant_gemm(*drv, nn::quant_gemm_config(base));
    const ptc::GemmResult sr = scalar_gemm.multiply(a, b);
    const ptc::GemmResult qr = quant_gemm.multiply(a, b);
    // Event accounting is part of the contract, field for field.
    EXPECT_EQ(qr.events.modulation_events, sr.events.modulation_events);
    EXPECT_EQ(qr.events.detection_events, sr.events.detection_events);
    EXPECT_EQ(qr.events.adc_events, sr.events.adc_events);
    EXPECT_EQ(qr.events.ddot_ops, sr.events.ddot_ops);
    EXPECT_EQ(qr.events.macs, sr.events.macs);
    EXPECT_EQ(qr.events.cycles, sr.events.cycles);
    ptc::GuardConfig g;
    g.noise_sigma = ptc::calibrate_guard_sigma(base.dot, s.k);
    const double band =
        sr.a_scale * sr.b_scale * ptc::guard_tolerance(g, s.k, 1, static_cast<double>(s.k));
    ASSERT_EQ(qr.c.rows(), sr.c.rows());
    ASSERT_EQ(qr.c.cols(), sr.c.cols());
    for (std::size_t i = 0; i < sr.c.size(); ++i) {
      EXPECT_NEAR(qr.c.data()[i], sr.c.data()[i], band) << "i=" << i;
    }
  }
}

TEST(KernelQuant, MatchesScalarKernelWithinBandFullOptics) { expect_band_identity(true); }
TEST(KernelQuant, MatchesScalarKernelWithinBandFunctional) { expect_band_identity(false); }

TEST(KernelQuant, ThreadCountInvariance) {
  // Integer sums are associative, so unlike the double SIMD tier the
  // quant tier is bit-identical at ANY thread count — pin it.
  Rng rng(41);
  const Matrix a = Matrix::random_gaussian(33, 200, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(200, 29, rng, 0.0, 1.0);
  const auto drv = core::make_bit_true_driver(8);
  const ptc::PhotonicGemm serial(*drv, nn::quant_gemm_config());
  const ptc::PhotonicGemm wide(*drv, nn::parallel_gemm_config(4, nn::quant_gemm_config()));
  const ptc::GemmResult sr = serial.multiply(a, b);
  const ptc::GemmResult wr = wide.multiply(a, b);
  ASSERT_EQ(sr.c.size(), wr.c.size());
  for (std::size_t i = 0; i < sr.c.size(); ++i) {
    EXPECT_EQ(sr.c.data()[i], wr.c.data()[i]) << "i=" << i;
  }
}

TEST(KernelQuant, GuardedCleanProductVerifies) {
  Rng rng(51);
  const Matrix a = Matrix::random_gaussian(20, 96, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(96, 24, rng, 0.0, 1.0);
  const auto drv = core::make_bit_true_driver(8);
  const ptc::PhotonicGemm gemm(*drv, nn::guarded_gemm_config({}, nn::quant_gemm_config()));
  const ptc::GemmResult r = gemm.multiply(a, b);
  EXPECT_TRUE(r.guard.enabled);
  EXPECT_EQ(r.guard.mismatched_tiles, 0u);
  EXPECT_LE(r.guard.worst_residual, r.guard.worst_tolerance);
}

// --- faults layer: off-grid lanes degrade the tier, never the product ------

faults::LaneBank perturbed_bank() {
  faults::LaneBankConfig bc;
  bc.pdac.bits = 8;
  bc.wavelengths = 6;
  bc.variation.tia_gain_sigma = 0.01;
  bc.variation.bias_sigma = 0.002;
  bc.variation.seed = 9;
  return faults::LaneBank(bc);
}

TEST(KernelQuant, PerturbedLanesAreOffGrid) {
  // The P-DAC's piecewise-linear arccos transfer never lands a lane's
  // whole code table bitwise on the quantizer grid — nominal or varied,
  // trimmed or not, in either bit encoding — which is why the faults
  // layer carries no integer tier.
  for (int bits = 2; bits <= 12; ++bits) {
    const converters::Quantizer quant(bits);
    for (const core::BitEncoding encoding :
         {core::BitEncoding::kTwosComplement, core::BitEncoding::kSignMagnitude}) {
      for (const bool varied : {false, true}) {
        for (const bool trimmed : {false, true}) {
          faults::LaneBankConfig bc;
          bc.pdac.bits = bits;
          bc.pdac.encoding = encoding;
          bc.wavelengths = 2;
          if (varied) {
            bc.variation.tia_gain_sigma = 0.01;
            bc.variation.bias_sigma = 0.002;
            bc.variation.seed = 9;
          }
          faults::LaneBank bank(bc);
          if (trimmed) faults::production_trim(bank);
          for (std::size_t l = 0; l < bank.lanes(); ++l) {
            const core::PerturbedPdacModel& model = bank.lane(l).model;
            bool on_grid = true;
            for (std::int32_t c = -quant.max_code(); c <= quant.max_code() && on_grid; ++c) {
              on_grid = model.encode_code(c) == quant.decode(c);
            }
            EXPECT_FALSE(on_grid) << "bits " << bits << " sign-magnitude "
                                  << (encoding == core::BitEncoding::kSignMagnitude)
                                  << " varied " << varied << " trimmed " << trimmed
                                  << " lane " << l;
          }
        }
      }
    }
  }
  // So the ladder resolves to a double tier.
  const ptc::ExecutionPath path = faults::auto_execution_path(perturbed_bank());
  EXPECT_NE(path, ptc::ExecutionPath::kKernelQuant);
  EXPECT_EQ(path, simd::has_fast_path() ? ptc::ExecutionPath::kKernelSimd
                                        : ptc::ExecutionPath::kKernel);
}

}  // namespace
