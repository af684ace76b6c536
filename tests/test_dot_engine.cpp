// Tests for the photonic dot-product lane (driver + WDM chunking + DDot).
#include <gtest/gtest.h>

#include <cmath>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ptc/dot_engine.hpp"

namespace {

using namespace pdac;
using namespace pdac::ptc;

TEST(DotEngine, FastPathEqualsFullOptics) {
  // The load-bearing equivalence: the algebraic shortcut must match the
  // field-level simulation exactly (the DDot datapath is exact).
  const auto drv = core::make_pdac_driver(8);
  DotEngineConfig fast_cfg, full_cfg;
  full_cfg.use_full_optics = true;
  const PhotonicDotEngine fast(*drv, fast_cfg);
  const PhotonicDotEngine full(*drv, full_cfg);
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const auto x = rng.uniform_vector(37, -1.0, 1.0);  // non-multiple of 8
    const auto y = rng.uniform_vector(37, -1.0, 1.0);
    EXPECT_NEAR(fast.dot(x, y), full.dot(x, y), 1e-10);
  }
}

TEST(DotEngine, EncodeUsesMemoizedDriverOutput) {
  const auto drv = core::make_pdac_driver(8);
  const PhotonicDotEngine engine(*drv, DotEngineConfig{});
  for (double r : {-1.0, -0.5, 0.0, 0.25, 0.7236, 1.0}) {
    EXPECT_DOUBLE_EQ(engine.encode(r), drv->encode(r)) << "r=" << r;
  }
}

TEST(DotEngine, DotErrorBoundedByEncoderError) {
  // Both operands carry ≤8.5 % + quantization error, so the product of a
  // pair deviates ≤ ~18 %; averaging over a random vector keeps it lower.
  const auto drv = core::make_pdac_driver(8);
  const PhotonicDotEngine engine(*drv, DotEngineConfig{});
  Rng rng(29);
  const auto x = rng.uniform_vector(256, -1.0, 1.0);
  const auto y = rng.uniform_vector(256, -1.0, 1.0);
  double exact = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) exact += x[i] * y[i];
  const double got = engine.dot(x, y);
  EXPECT_NEAR(got, exact, 0.18 * 256.0 / std::sqrt(12.0));  // loose structural bound
}

TEST(DotEngine, IdealDacDriverIsNearExact) {
  const auto drv = core::make_ideal_dac_driver(10);
  const PhotonicDotEngine engine(*drv, DotEngineConfig{});
  Rng rng(31);
  const auto x = rng.uniform_vector(64, -1.0, 1.0);
  const auto y = rng.uniform_vector(64, -1.0, 1.0);
  double exact = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) exact += x[i] * y[i];
  EXPECT_NEAR(engine.dot(x, y), exact, 0.05);
}

TEST(DotEngine, EventCountsPerChunk) {
  const auto drv = core::make_pdac_driver(8);
  DotEngineConfig cfg;
  cfg.wavelengths = 8;
  const PhotonicDotEngine engine(*drv, cfg);
  Rng rng(37);
  const auto x = rng.uniform_vector(20, -1.0, 1.0);  // 3 chunks: 8+8+4
  const auto y = rng.uniform_vector(20, -1.0, 1.0);
  EventCounter ev;
  (void)engine.dot(x, y, &ev);
  EXPECT_EQ(ev.modulation_events, 40u);
  EXPECT_EQ(ev.detection_events, 3u);
  EXPECT_EQ(ev.ddot_ops, 3u);
  EXPECT_EQ(ev.macs, 20u);
  EXPECT_EQ(ev.cycles, 3u);
  EXPECT_EQ(ev.adc_events, 0u);  // readout disabled by default
}

TEST(DotEngine, AdcReadoutQuantizesResult) {
  const auto drv = core::make_ideal_dac_driver(8);
  DotEngineConfig cfg;
  cfg.adc_readout = true;
  cfg.adc_bits = 4;
  cfg.adc_full_scale = 1.0;
  const PhotonicDotEngine engine(*drv, cfg);
  const std::vector<double> x{0.9};
  const std::vector<double> y{0.9};
  EventCounter ev;
  const double v = engine.dot(x, y, &ev);
  EXPECT_EQ(ev.adc_events, 1u);
  // 4-bit over ±1: steps of 1/7.
  const double code = v * 7.0;
  EXPECT_NEAR(code, std::round(code), 1e-9);
}

TEST(DotEngine, EmptyVectorsGiveZero) {
  const auto drv = core::make_pdac_driver(8);
  const PhotonicDotEngine engine(*drv, DotEngineConfig{});
  EXPECT_DOUBLE_EQ(engine.dot({}, {}), 0.0);
}

TEST(DotEngine, RejectsLengthMismatch) {
  const auto drv = core::make_pdac_driver(8);
  const PhotonicDotEngine engine(*drv, DotEngineConfig{});
  const std::vector<double> x{1.0};
  const std::vector<double> y{1.0, 2.0};
  EXPECT_THROW((void)engine.dot(x, y), PreconditionError);
}

TEST(DotEngine, DotIsTheEncodedDotPlusStandaloneCharges) {
  // dot(x, y) runs the encoded operands through dot_preencoded's chunk
  // loop, bit for bit with or without caller scratch, and charges
  // dot_preencoded's events plus 2·n modulations, ⌈n/λ⌉ cycles and one
  // ADC sample when digitizing — over full optics on and off, ADC on and
  // off, 1, 3 and 8 wavelengths and lengths 1 to 768.
  const auto drv = core::make_pdac_driver(8);
  Rng rng(43);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 64; ++n) lengths.push_back(n);
  for (std::size_t n = 71; n < 768; n += 7) lengths.push_back(n);
  lengths.push_back(768);
  for (const bool optics : {false, true}) {
    for (const bool adc : {false, true}) {
      for (const std::size_t lambda : {1u, 3u, 8u}) {
        DotEngineConfig cfg;
        cfg.wavelengths = lambda;
        cfg.use_full_optics = optics;
        cfg.adc_readout = adc;
        const PhotonicDotEngine engine(*drv, cfg);
        DdotScratch scratch;
        for (const std::size_t n : lengths) {
          SCOPED_TRACE(testing::Message() << "optics " << optics << " adc " << adc << " lambda "
                                          << lambda << " n " << n);
          const auto x = rng.uniform_vector(n, -1.0, 1.0);
          const auto y = rng.uniform_vector(n, -1.0, 1.0);
          std::vector<double> xe(n);
          std::vector<double> ye(n);
          for (std::size_t i = 0; i < n; ++i) {
            xe[i] = engine.encode(x[i]);
            ye[i] = engine.encode(y[i]);
          }
          EventCounter ev;
          EventCounter pre_ev;
          const double got = engine.dot(x, y, &ev);
          EXPECT_EQ(got, engine.dot_preencoded(xe, ye, &pre_ev));
          EXPECT_EQ(got, engine.dot_preencoded(xe, ye, nullptr, nullptr, &scratch));
          EXPECT_EQ(ev.modulation_events, pre_ev.modulation_events + 2 * n);
          EXPECT_EQ(ev.detection_events, pre_ev.detection_events);
          EXPECT_EQ(ev.ddot_ops, pre_ev.ddot_ops);
          EXPECT_EQ(ev.macs, pre_ev.macs);
          EXPECT_EQ(ev.cycles, pre_ev.cycles + (n + lambda - 1) / lambda);
          EXPECT_EQ(ev.adc_events, pre_ev.adc_events + (adc ? 1u : 0u));
        }
      }
    }
  }
}

TEST(DotEngine, RejectsZeroWavelengths) {
  const auto drv = core::make_pdac_driver(8);
  DotEngineConfig cfg;
  cfg.wavelengths = 0;
  EXPECT_THROW((void)PhotonicDotEngine(*drv, cfg), PreconditionError);
}

// --- property: chunking is invariant to the wavelength count ---------------
class ChunkingInvariance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkingInvariance, ResultIndependentOfWavelengths) {
  const auto drv = core::make_pdac_driver(8);
  DotEngineConfig base;
  base.wavelengths = 1;
  DotEngineConfig chunked;
  chunked.wavelengths = GetParam();
  const PhotonicDotEngine ref(*drv, base);
  const PhotonicDotEngine eng(*drv, chunked);
  Rng rng(41);
  const auto x = rng.uniform_vector(50, -1.0, 1.0);
  const auto y = rng.uniform_vector(50, -1.0, 1.0);
  EXPECT_NEAR(eng.dot(x, y), ref.dot(x, y), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Wavelengths, ChunkingInvariance,
                         ::testing::Values(2, 3, 8, 16, 50, 64));

}  // namespace

namespace {

using namespace pdac;
using namespace pdac::ptc;

TEST(DotEngineNoise, NoiselessConfigMatchesDeterministicPath) {
  const auto drv = core::make_ideal_dac_driver(8);
  const PhotonicDotEngine engine(*drv, DotEngineConfig{});
  Rng rng(3);
  const auto x = rng.uniform_vector(24, -1.0, 1.0);
  const auto y = rng.uniform_vector(24, -1.0, 1.0);
  Rng noise_rng(4);
  EXPECT_NEAR(engine.dot_noisy(x, y, noise_rng), engine.dot(x, y), 1e-10);
}

TEST(DotEngineNoise, NoisyPathAppliesAdcReadout) {
  // Regression: dot_noisy used to skip the ADC stage entirely, so noise
  // ablations compared a no-ADC noisy pipeline against an ADC-quantized
  // clean one.  With noise disabled the two paths must now agree exactly,
  // ADC quantization included.
  const auto drv = core::make_ideal_dac_driver(8);
  DotEngineConfig cfg;
  cfg.adc_readout = true;
  cfg.adc_bits = 4;
  cfg.adc_full_scale = 1.0;
  const PhotonicDotEngine engine(*drv, cfg);
  const std::vector<double> x{0.9};
  const std::vector<double> y{0.9};
  Rng noise_rng(9);
  const double noisy = engine.dot_noisy(x, y, noise_rng);
  EXPECT_NEAR(noisy, engine.dot(x, y), 1e-12);
  // The readout sits on a 4-bit grid (steps of 1/7 over ±1).
  const double code = noisy * 7.0;
  EXPECT_NEAR(code, std::round(code), 1e-9);
}

TEST(DotEngineNoise, NoisyPathCountsSameEventsAsClean) {
  const auto drv = core::make_ideal_dac_driver(8);
  DotEngineConfig cfg;
  cfg.wavelengths = 8;
  cfg.adc_readout = true;
  const PhotonicDotEngine engine(*drv, cfg);
  Rng rng(10);
  const auto x = rng.uniform_vector(20, -1.0, 1.0);  // 3 chunks
  const auto y = rng.uniform_vector(20, -1.0, 1.0);
  EventCounter clean_ev, noisy_ev;
  (void)engine.dot(x, y, &clean_ev);
  Rng noise_rng(11);
  (void)engine.dot_noisy(x, y, noise_rng, &noisy_ev);
  EXPECT_EQ(noisy_ev.modulation_events, clean_ev.modulation_events);
  EXPECT_EQ(noisy_ev.detection_events, clean_ev.detection_events);
  EXPECT_EQ(noisy_ev.ddot_ops, clean_ev.ddot_ops);
  EXPECT_EQ(noisy_ev.macs, clean_ev.macs);
  EXPECT_EQ(noisy_ev.adc_events, clean_ev.adc_events);
  EXPECT_EQ(noisy_ev.cycles, clean_ev.cycles);
}

TEST(DotEngineNoise, ThermalNoiseCentersOnCleanValue) {
  const auto drv = core::make_ideal_dac_driver(10);
  DotEngineConfig cfg;
  cfg.pd_noise.enabled = true;
  cfg.pd_noise.thermal_noise_std = 0.02;
  const PhotonicDotEngine engine(*drv, cfg);
  Rng data_rng(5);
  const auto x = data_rng.uniform_vector(16, -1.0, 1.0);
  const auto y = data_rng.uniform_vector(16, -1.0, 1.0);
  const double clean = engine.dot(x, y);
  Rng noise_rng(6);
  stats::Running r;
  for (int t = 0; t < 8000; ++t) r.add(engine.dot_noisy(x, y, noise_rng));
  EXPECT_NEAR(r.mean(), clean, 0.003);
  // Two PDs per chunk, two chunks: variance = 4 * sigma^2.
  EXPECT_NEAR(r.stddev(), 0.02 * 2.0, 0.005);
}

TEST(DotEngineNoise, NoiseGrowsWithChunkCount) {
  const auto drv = core::make_ideal_dac_driver(10);
  DotEngineConfig cfg;
  cfg.pd_noise.enabled = true;
  cfg.pd_noise.thermal_noise_std = 0.02;
  cfg.wavelengths = 8;
  const PhotonicDotEngine engine(*drv, cfg);
  Rng data_rng(7);
  auto measure_std = [&](std::size_t len) {
    const auto x = data_rng.uniform_vector(len, -1.0, 1.0);
    const auto y = data_rng.uniform_vector(len, -1.0, 1.0);
    Rng noise_rng(8);
    stats::Running r;
    for (int t = 0; t < 4000; ++t) r.add(engine.dot_noisy(x, y, noise_rng));
    return r.stddev();
  };
  // 16x the chunks (256 vs 16 elements at 8 lambda) -> 4x the noise std.
  EXPECT_NEAR(measure_std(256) / measure_std(16), 4.0, 0.5);
}

}  // namespace
