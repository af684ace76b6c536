// Property tests for the tile-parallel GEMM execution engine: results
// must be BIT-identical to serial execution at any thread count — for
// random shapes, ragged tiles, fenced-lane masks and the full-optics
// path.  (The lane-bank backend's thread-count identity is pinned in
// test_guarded_backend.cpp.)
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "ptc/gemm_engine.hpp"
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

}  // namespace
