// Property tests for the tile-parallel GEMM execution engine: results
// must be BIT-identical to serial execution at any thread count — for
// random shapes, ragged tiles, fenced-lane masks and the full-optics
// path — and to a tile-by-tile reference whatever the unit of kernel
// calls (row panels unguarded, tiles guarded).  (The lane-bank
// backend's thread-count identity is pinned in test_guarded_backend.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "converters/quantizer.hpp"
#include "ptc/abft.hpp"
#include "ptc/gemm_engine.hpp"
#include "ptc/kernel.hpp"
#include "ptc/tile_scheduler.hpp"

namespace {

using namespace pdac;
using namespace pdac::ptc;

void expect_bit_identical(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // EXPECT_EQ on doubles is exact comparison — bit-identity, not closeness.
    EXPECT_EQ(got.data()[i], want.data()[i]) << what << ": element " << i;
  }
}

void expect_same_events(const EventCounter& a, const EventCounter& b) {
  EXPECT_EQ(a.modulation_events, b.modulation_events);
  EXPECT_EQ(a.detection_events, b.detection_events);
  EXPECT_EQ(a.adc_events, b.adc_events);
  EXPECT_EQ(a.ddot_ops, b.ddot_ops);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(TileScheduler, PartitionCoversOutputOnce) {
  const auto tiles = partition_tiles(19, 13, 8, 8);
  std::vector<int> covered(19 * 13, 0);
  for (const Tile& t : tiles) {
    for (std::size_t i = t.row0; i < t.row0 + t.rows; ++i) {
      for (std::size_t j = t.col0; j < t.col0 + t.cols; ++j) covered[i * 13 + j] += 1;
    }
  }
  for (int c : covered) EXPECT_EQ(c, 1);
  // Row-major order, ragged edge tiles of 3 rows / 5 cols.
  EXPECT_EQ(tiles.size(), 3u * 2u);
  EXPECT_EQ(tiles.back().rows, 3u);
  EXPECT_EQ(tiles.back().cols, 5u);
}

TEST(TileScheduler, EmptyOutputsYieldNoTiles) {
  EXPECT_TRUE(partition_tiles(0, 5, 8, 8).empty());
  EXPECT_TRUE(partition_tiles(5, 0, 8, 8).empty());
}

TEST(ParallelGemm, BitIdenticalToSerialRandomShapes) {
  const auto drv = core::make_pdac_driver(8);
  Rng rng(101);
  for (int trial = 0; trial < 8; ++trial) {
    const auto m = static_cast<std::size_t>(rng.integer(1, 30));
    const auto k = static_cast<std::size_t>(rng.integer(1, 40));
    const auto n = static_cast<std::size_t>(rng.integer(1, 30));
    const Matrix a = Matrix::random_gaussian(m, k, rng);
    const Matrix b = Matrix::random_gaussian(k, n, rng);

    GemmConfig serial_cfg;
    serial_cfg.threads = 1;
    GemmConfig par_cfg;
    par_cfg.threads = 4;
    const PhotonicGemm serial(*drv, serial_cfg);
    const PhotonicGemm parallel(*drv, par_cfg);
    const GemmResult rs = serial.multiply(a, b);
    const GemmResult rp = parallel.multiply(a, b);
    expect_bit_identical(rp.c, rs.c, "random shape");
    expect_same_events(rp.events, rs.events);
    EXPECT_EQ(rp.a_scale, rs.a_scale);
    EXPECT_EQ(rp.b_scale, rs.b_scale);
  }
}

TEST(ParallelGemm, BitIdenticalAcrossThreadCounts) {
  const auto drv = core::make_ideal_dac_driver(8);
  Rng rng(202);
  const Matrix a = Matrix::random_gaussian(17, 23, rng);
  const Matrix b = Matrix::random_gaussian(23, 9, rng);
  GemmConfig cfg;
  cfg.threads = 1;
  const GemmResult base = PhotonicGemm(*drv, cfg).multiply(a, b);
  for (std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{7}, std::size_t{16}}) {
    cfg.threads = threads;
    const GemmResult r = PhotonicGemm(*drv, cfg).multiply(a, b);
    expect_bit_identical(r.c, base.c, "thread count");
    expect_same_events(r.events, base.events);
  }
}

TEST(ParallelGemm, ThreadCountOneMatchesDefaultConfig) {
  // GemmConfig{} defaults to serial; an explicit threads = 1 pool must be
  // exactly the same engine.
  const auto drv = core::make_pdac_driver(8);
  Rng rng(303);
  const Matrix a = Matrix::random_gaussian(8, 8, rng);
  const Matrix b = Matrix::random_gaussian(8, 8, rng);
  GemmConfig explicit_cfg;
  explicit_cfg.threads = 1;
  const GemmResult d = PhotonicGemm(*drv, GemmConfig{}).multiply(a, b);
  const GemmResult e = PhotonicGemm(*drv, explicit_cfg).multiply(a, b);
  expect_bit_identical(e.c, d.c, "threads=1");
  expect_same_events(e.events, d.events);
}

TEST(ParallelGemm, BitIdenticalWithRaggedTilesAndFencedLanes) {
  // Ragged chunks from an odd wavelength count (fenced-lane packing is
  // the faults layer's).
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.array_rows = 4;
  cfg.array_cols = 8;
  cfg.dot.wavelengths = 5;  // 21 = 4 chunks of 5 plus one of 1
  Rng rng(404);
  const Matrix a = Matrix::random_gaussian(13, 21, rng);  // ragged in every axis
  const Matrix b = Matrix::random_gaussian(21, 11, rng);
  GemmConfig serial_cfg = cfg;
  serial_cfg.threads = 1;
  cfg.threads = 5;
  const GemmResult rs = PhotonicGemm(*drv, serial_cfg).multiply(a, b);
  const GemmResult rp = PhotonicGemm(*drv, cfg).multiply(a, b);
  expect_bit_identical(rp.c, rs.c, "ragged chunks");
  expect_same_events(rp.events, rs.events);
}

TEST(ParallelGemm, BitIdenticalFullOpticsPath) {
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.dot.use_full_optics = true;
  cfg.dot.adc_readout = true;
  cfg.dot.adc_bits = 8;
  Rng rng(505);
  const Matrix a = Matrix::random_gaussian(10, 19, rng);
  const Matrix b = Matrix::random_gaussian(19, 12, rng);
  GemmConfig serial_cfg = cfg;
  serial_cfg.threads = 1;
  cfg.threads = 3;
  const GemmResult rs = PhotonicGemm(*drv, serial_cfg).multiply(a, b);
  const GemmResult rp = PhotonicGemm(*drv, cfg).multiply(a, b);
  expect_bit_identical(rp.c, rs.c, "full optics");
  expect_same_events(rp.events, rs.events);
}

/// What one product of `gemm` on (a, pb) must return, built tile by
/// tile: the engine's own A encodes, one FusedKernel call per 8×8 tile
/// (run_tile_fast on the SIMD tier, run_tile — bit-exact to the device
/// graph — otherwise), fold_tile, the guard's verdict per tile folded in
/// tile order, and the closed-form events summed over the tiles.
GemmResult per_tile_reference(const PhotonicGemm& gemm, const Matrix& a,
                              const PreparedOperand& pb) {
  const GemmConfig& cfg = gemm.config();
  const FusedKernel kernel(gemm.engine());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = pb.cols;
  const double a_scale = converters::max_abs_scale(a.data());
  Matrix ae(m, k);
  std::vector<double> norm(k);
  std::vector<double> xx(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) norm[p] = a(i, p) / a_scale;
    gemm.engine().encode_span(norm, ae.row(i));
    xx[i] = kernel.energy(ae.row(i));
  }
  // Column energies as the engine reads them: staged when the operand
  // carries them at this length, else summed from the encodes.
  std::vector<double> yy = pb.energy;
  if (!pb.has_energy()) {
    yy.resize(n);
    for (std::size_t j = 0; j < n; ++j) yy[j] = kernel.energy(pb.encoded.row(j).first(k));
  }
  Matrix xsum;
  stripe_sums(ae, cfg.array_rows, xsum);

  GemmResult ref;
  ref.c = Matrix(m, n);
  const bool guarded = cfg.guard.enabled;
  const std::vector<Tile> tiles = partition_tiles(m, n, cfg.array_rows, cfg.array_cols);
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const Tile& tile = tiles[t];
    if (cfg.path == ExecutionPath::kKernelSimd) {
      kernel.run_tile_fast(tile, ae, pb.encoded, xx, yy, ref.c);
    } else {
      kernel.run_tile(tile, ae, pb.encoded, ref.c);
    }
    std::vector<double> rsum(guarded ? tile.rows : 0);
    std::vector<double> csum(guarded ? tile.cols : 0);
    fold_tile(tile, a_scale * pb.scale, ref.c, rsum, csum);
    ref.events += tile_step_events(tile.rows, tile.cols, k, cfg.dot.wavelengths,
                                   Residency::kBroadcast, kSamplePerOutput);
    if (!guarded) continue;
    const TileCheck check =
        verify_tile(cfg.guard, tile, t, rsum, csum, ae, xsum.row(tile.row0 / cfg.array_rows),
                    pb.encoded, 0, pb.checksum.row(tile.col0 / cfg.array_cols));
    if (!check.ok && ref.guard.mismatched_tiles++ == 0) ref.guard.first_mismatch = t;
    fold_worst_residual(check.worst_residual, check.tolerance, ref.guard.worst_residual,
                        ref.guard.worst_tolerance);
    ref.guard.tally_drift(check);
  }
  return ref;
}

void expect_same_outcome(const GuardOutcome& got, const GuardOutcome& want) {
  EXPECT_EQ(got.mismatched_tiles, want.mismatched_tiles);
  EXPECT_EQ(got.first_mismatch, want.first_mismatch);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.worst_residual),
            std::bit_cast<std::uint64_t>(want.worst_residual));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.worst_tolerance),
            std::bit_cast<std::uint64_t>(want.worst_tolerance));
  EXPECT_EQ(got.drift_tiles, want.drift_tiles);
  EXPECT_EQ(got.worst_drift_ratio, want.worst_drift_ratio);
}

TEST(RowPanel, PartitionCoversOutputOnceOnTileBoundaries) {
  for (const std::size_t parts : {1u, 2u, 3u, 8u}) {
    std::vector<Tile> panels;
    partition_panels_into(19, 45, 8, 8, parts, panels);
    // Three stripes, each cut into min(parts, 6 column tiles) chunks.
    ASSERT_EQ(panels.size(), 3 * std::min<std::size_t>(parts, 6)) << parts;
    std::vector<int> covered(19 * 45, 0);
    for (const Tile& t : panels) {
      EXPECT_EQ(t.row0 % 8, 0u);
      EXPECT_EQ(t.col0 % 8, 0u);
      EXPECT_TRUE(t.col0 + t.cols == 45 || t.cols % 8 == 0) << parts;
      for (std::size_t i = t.row0; i < t.row0 + t.rows; ++i) {
        for (std::size_t j = t.col0; j < t.col0 + t.cols; ++j) covered[i * 45 + j] += 1;
      }
    }
    for (const int c : covered) EXPECT_EQ(c, 1) << parts;
  }
  std::vector<Tile> panels;
  partition_panels_into(0, 5, 8, 8, 2, panels);
  EXPECT_TRUE(panels.empty());
}

// An unguarded product runs one kernel call per row panel, a guarded one
// one per tile; either way its outputs, events and verdicts are the
// per-tile reference's, on every tier, with full optics and ADC readout
// on and off, across ragged shapes and pool widths.  A B column
// corrupted behind its staged checksums makes the guarded verdicts
// mismatch, so they are compared on failing tiles too.
TEST(RowPanel, ProductsEqualThePerTileReference) {
  const auto drv = core::make_pdac_driver(8);
  Rng rng(2024);
  for (const ExecutionPath path :
       {ExecutionPath::kKernel, ExecutionPath::kKernelSimd, ExecutionPath::kDeviceGraph}) {
    for (const bool guarded : {false, true}) {
      for (const bool optics : {false, true}) {
        for (const bool adc : {false, true}) {
          for (const std::size_t threads : {1u, 2u, 3u}) {
            GemmConfig cfg;
            cfg.path = path;
            cfg.guard.enabled = guarded;
            cfg.dot.use_full_optics = optics;
            cfg.dot.adc_readout = adc;
            cfg.threads = threads;
            const PhotonicGemm gemm(*drv, cfg);
            for (const std::size_t m : {1u, 3u, 9u}) {
              for (const std::size_t n : {1u, 7u, 13u, 257u}) {
                for (const std::size_t k : {1u, 5u, 32u, 129u}) {
                  SCOPED_TRACE(testing::Message()
                               << "path " << static_cast<int>(path) << " guard " << guarded
                               << " optics " << optics << " adc " << adc << " threads "
                               << threads << " m " << m << " n " << n << " k " << k);
                  const Matrix a = Matrix::random_gaussian(m, k, rng);
                  PreparedOperand pb = gemm.prepare_b(Matrix::random_gaussian(k, n, rng));
                  if (guarded) {
                    // One corrupted column, behind the staged checksums.
                    for (std::size_t p = 0; p < k; ++p) pb.encoded(n / 2, p) += 0.25;
                  }
                  const GemmResult got = gemm.multiply_prepared(a, pb);
                  const GemmResult want = per_tile_reference(gemm, a, pb);
                  expect_bit_identical(got.c, want.c, "outputs");
                  expect_same_events(got.events, want.events);
                  expect_same_events(got.events, gemm.count_events(m, k, n));
                  if (guarded) {
                    EXPECT_GT(got.guard.mismatched_tiles, 0u);
                    expect_same_outcome(got.guard, want.guard);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
