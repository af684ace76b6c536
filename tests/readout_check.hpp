// readout_check.hpp — the tile readout contract every FusedKernel tier
// shares, checked against the scalar ADC: each ADC-on output is
// sample_to_voltage of the ADC-off raw value, rescaled, and the tile sums
// fold those post-ADC values in ascending order.  Shared by
// test_kernel.cpp (run_tile, run_tile_fast) and test_kernel_quant.cpp
// (run_tile_quant).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/matrix.hpp"
#include "converters/electrical_adc.hpp"
#include "ptc/kernel.hpp"
#include "ptc/tile_scheduler.hpp"

namespace pdac::readout_check {

/// Output shape the tiles below cut into.
inline constexpr std::size_t kRows = 9;
inline constexpr std::size_t kCols = 12;

/// Ragged tiles of 1 to 11 columns at nonzero row0/col0 — whole 4-wide
/// column blocks and every tail — as (row0, col0, rows, cols).
inline constexpr ptc::Tile kTiles[] = {{1, 1, 2, 1}, {2, 3, 3, 6}, {3, 2, 1, 7}, {4, 1, 5, 11},
                                       {6, 4, 3, 8}, {5, 9, 2, 3}, {7, 2, 2, 4}};

/// Runs `run(kernel, tile, rescale, c, rsum, csum)` on the ADC-on and the
/// ADC-off kernel of one chain over every tile, with and without tile
/// sums, and checks the readout of the ADC-on run against `adc`, the
/// scalar converter at the tiles' full scale.
template <typename Run>
void expect_span_readout(const ptc::FusedKernel& on, const ptc::FusedKernel& off,
                         const converters::ElectricalAdc& adc, const Run& run) {
  const double rescale = 0.75;
  for (const ptc::Tile& tile : kTiles) {
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

}  // namespace pdac::readout_check
