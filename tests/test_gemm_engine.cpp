// Tests for the photonic GEMM engine: numerics and event accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/require.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "faults/guarded_backend.hpp"
#include "nn/backend.hpp"
#include "ptc/gemm_engine.hpp"

namespace {

using namespace pdac;
using namespace pdac::ptc;

TEST(PhotonicGemm, IdealDacCloseToReference) {
  const auto drv = core::make_ideal_dac_driver(10);
  const PhotonicGemm gemm(*drv, GemmConfig{});
  Rng rng(1);
  const Matrix a = Matrix::random_gaussian(8, 16, rng);
  const Matrix b = Matrix::random_gaussian(16, 12, rng);
  const GemmResult res = gemm.multiply(a, b);
  const Matrix exact = matmul_reference(a, b);
  const auto err = stats::compare(res.c.data(), exact.data());
  EXPECT_LT(err.rel_frobenius, 0.02);
  EXPECT_GT(err.cosine, 0.999);
}

TEST(PhotonicGemm, PdacCloseToReferenceWithKnownError) {
  const auto drv = core::make_pdac_driver(8);
  const PhotonicGemm gemm(*drv, GemmConfig{});
  Rng rng(2);
  const Matrix a = Matrix::random_gaussian(10, 20, rng);
  const Matrix b = Matrix::random_gaussian(20, 10, rng);
  const GemmResult res = gemm.multiply(a, b);
  const Matrix exact = matmul_reference(a, b);
  const auto err = stats::compare(res.c.data(), exact.data());
  EXPECT_LT(err.rel_frobenius, 0.15);
  EXPECT_GT(err.cosine, 0.98);
}

TEST(PhotonicGemm, ScalesRecordedAndApplied) {
  const auto drv = core::make_ideal_dac_driver(10);
  const PhotonicGemm gemm(*drv, GemmConfig{});
  // Large-magnitude operands must be rescaled transparently.
  Matrix a(1, 2, std::vector<double>{100.0, -50.0});
  Matrix b(2, 1, std::vector<double>{2.0, 4.0});
  const GemmResult res = gemm.multiply(a, b);
  EXPECT_DOUBLE_EQ(res.a_scale, 100.0);
  EXPECT_DOUBLE_EQ(res.b_scale, 4.0);
  EXPECT_NEAR(res.c(0, 0), 0.0, 1.5);  // 200 − 200 with quantization slack
}

TEST(PhotonicGemm, ZeroMatrixStaysZero) {
  const auto drv = core::make_pdac_driver(8);
  const PhotonicGemm gemm(*drv, GemmConfig{});
  const Matrix a(3, 3, 0.0);
  const Matrix b(3, 3, 0.0);
  const GemmResult res = gemm.multiply(a, b);
  // encode(0) = cos(π/2) leaves a ~1e-17 field residue; squared terms
  // land at ~1e-33 — numerically zero.
  for (double v : res.c.data()) EXPECT_NEAR(v, 0.0, 1e-15);
}

TEST(PhotonicGemm, RejectsBadInnerDims) {
  const auto drv = core::make_pdac_driver(8);
  const PhotonicGemm gemm(*drv, GemmConfig{});
  EXPECT_THROW(gemm.multiply(Matrix(2, 3), Matrix(2, 2)), PreconditionError);
}

TEST(PhotonicGemm, EventCountsExactTiling) {
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.array_rows = 8;
  cfg.array_cols = 8;
  cfg.dot.wavelengths = 8;
  const PhotonicGemm gemm(*drv, cfg);
  // 16×64×16: 2×2 tiles of 8×8, 8 chunks each.
  const EventCounter ev = gemm.count_events(16, 64, 16);
  EXPECT_EQ(ev.macs, 16u * 64u * 16u);
  EXPECT_EQ(ev.modulation_events, 4u * (8 + 8) * 64u);  // 4 tiles × (h+w)·k
  EXPECT_EQ(ev.ddot_ops, 4u * 64u * 8u);                // tiles × h·w × chunks
  EXPECT_EQ(ev.adc_events, 16u * 16u);
  EXPECT_EQ(ev.cycles, 4u * 8u);
}

TEST(PhotonicGemm, EventCountsHandleRaggedEdges) {
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.array_rows = 8;
  cfg.array_cols = 8;
  cfg.dot.wavelengths = 8;
  const PhotonicGemm gemm(*drv, cfg);
  // 9×10×9 → tiles (8+1)×(8+1), chunks = ceil(10/8) = 2.
  const EventCounter ev = gemm.count_events(9, 10, 9);
  EXPECT_EQ(ev.macs, 9u * 10u * 9u);
  // Tiles: (8,8),(8,1),(1,8),(1,1): mods = (16+9+9+2)·10 = 360.
  EXPECT_EQ(ev.modulation_events, 360u);
  EXPECT_EQ(ev.adc_events, 81u);
  EXPECT_EQ(ev.cycles, 4u * 2u);
}

TEST(PhotonicGemm, BroadcastReducesModulationsVsNaive) {
  const auto drv = core::make_pdac_driver(8);
  const PhotonicGemm gemm(*drv, GemmConfig{});
  const EventCounter ev = gemm.count_events(64, 64, 64);
  // Naive: 2 modulations per MAC pair; broadcast: (8+8)/64 per MAC.
  EXPECT_LT(ev.modulation_events, 2u * ev.macs / 4u);
}

TEST(PhotonicGemm, MultiplyAttachesEventCounts) {
  const auto drv = core::make_pdac_driver(8);
  const PhotonicGemm gemm(*drv, GemmConfig{});
  Rng rng(5);
  const Matrix a = Matrix::random_gaussian(4, 8, rng);
  const Matrix b = Matrix::random_gaussian(8, 4, rng);
  const GemmResult res = gemm.multiply(a, b);
  const EventCounter expect = gemm.count_events(4, 8, 4);
  EXPECT_EQ(res.events.macs, expect.macs);
  EXPECT_EQ(res.events.modulation_events, expect.modulation_events);
}

void expect_events_equal(const EventCounter& a, const EventCounter& b) {
  EXPECT_EQ(a.modulation_events, b.modulation_events);
  EXPECT_EQ(a.detection_events, b.detection_events);
  EXPECT_EQ(a.adc_events, b.adc_events);
  EXPECT_EQ(a.ddot_ops, b.ddot_ops);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(PhotonicGemm, ExecutedEventsEqualAnalyticCountsAllFields) {
  // The reconciliation contract: multiply() accumulates detection, DDot
  // and MAC events from the dots it actually runs, plus tile-level
  // modulation/ADC/cycle charges — and that total equals count_events()
  // field-for-field, ragged tiles and fenced lanes included.
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.array_rows = 8;
  cfg.array_cols = 4;
  cfg.dot.wavelengths = 8;
  cfg.dot.lane_mask = {1, 1, 0, 1, 1, 1, 0, 1};
  const PhotonicGemm gemm(*drv, cfg);
  Rng rng(11);
  const Matrix a = Matrix::random_gaussian(13, 22, rng);
  const Matrix b = Matrix::random_gaussian(22, 9, rng);
  const GemmResult res = gemm.multiply(a, b);
  expect_events_equal(res.events, gemm.count_events(13, 22, 9));
}

TEST(PhotonicGemm, UnitArrayDegeneratesToStandaloneDotConvention) {
  // With a 1×1 array there is no broadcast to amortize: the tile
  // contract's (h+w)·k modulations collapse to the standalone dot's 2·k,
  // so GEMM events must equal the per-dot counters summed over every
  // output element.  This is the documented relationship between the two
  // accounting conventions.
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.array_rows = 1;
  cfg.array_cols = 1;
  cfg.dot.adc_readout = true;  // dot() only charges ADC when it digitizes
  const PhotonicGemm gemm(*drv, cfg);
  Rng rng(12);
  const Matrix a = Matrix::random_gaussian(5, 17, rng);
  const Matrix b = Matrix::random_gaussian(17, 4, rng);
  const GemmResult res = gemm.multiply(a, b);

  // Sum standalone per-dot counters over every output element (event
  // counts depend only on operand lengths, not values).
  EventCounter per_dot;
  Matrix bt = b.transposed();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      (void)gemm.engine().dot(a.row(i), bt.row(j), &per_dot);
    }
  }
  expect_events_equal(res.events, per_dot);
}

TEST(PhotonicGemm, BroadcastAmortizationRatioVsPerDot) {
  // On an H×W array the tile contract charges (H+W)/(2·H·W) of the
  // modulations a per-dot accounting would: 8×8 tiles amortize 8×.
  const auto drv = core::make_pdac_driver(8);
  const PhotonicGemm gemm(*drv, GemmConfig{});  // 8×8 array
  const EventCounter ev = gemm.count_events(64, 32, 64);
  const std::uint64_t per_dot_convention = 2ull * 32ull * 64ull * 64ull;  // 2k per output
  EXPECT_EQ(ev.modulation_events, per_dot_convention / 8u);
}

TEST(PhotonicGemm, RejectsDegenerateArray) {
  // A zero-height array fails at construction, and so does the retired
  // integer tier on either modulator chain.
  const std::unique_ptr<core::ModulatorDriver> drivers[] = {core::make_pdac_driver(8),
                                                            core::make_ideal_dac_driver(8)};
  for (const auto& drv : drivers) {
    GemmConfig cfg;
    cfg.array_rows = 0;
    EXPECT_THROW(PhotonicGemm(*drv, cfg), PreconditionError) << drv->name();
    cfg = GemmConfig{};
    cfg.path = ExecutionPath::kKernelQuant;
    EXPECT_THROW(PhotonicGemm(*drv, cfg), PreconditionError) << drv->name();
  }
}

TEST(PhotonicGemm, FastestPathIsSimdWhenTheCpuHasIt) {
  // Every tier resolver picks the SIMD tier on a wide CPU and the scalar
  // kernel otherwise, whatever the modulator chain or lane bank.
  const ExecutionPath want =
      simd::has_fast_path() ? ExecutionPath::kKernelSimd : ExecutionPath::kKernel;
  EXPECT_EQ(fastest_path(), want);
  EXPECT_EQ(nn::fastest_gemm_config(*core::make_pdac_driver(8)).path, want);
  EXPECT_EQ(nn::fastest_gemm_config(*core::make_ideal_dac_driver(8)).path, want);
  EXPECT_EQ(faults::auto_execution_path(faults::LaneBank(faults::LaneBankConfig{})), want);
}

TEST(EventCounter, AdditionAccumulates) {
  EventCounter a;
  a.macs = 10;
  a.modulation_events = 4;
  EventCounter b;
  b.macs = 5;
  b.adc_events = 2;
  const EventCounter c = a + b;
  EXPECT_EQ(c.macs, 15u);
  EXPECT_EQ(c.modulation_events, 4u);
  EXPECT_EQ(c.adc_events, 2u);
}

}  // namespace
