#include "ptc/tile_scheduler.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace pdac::ptc {

std::vector<Tile> partition_tiles(std::size_t m, std::size_t n, std::size_t tile_rows,
                                  std::size_t tile_cols) {
  std::vector<Tile> tiles;
  partition_tiles_into(m, n, tile_rows, tile_cols, tiles);
  return tiles;
}

void partition_tiles_into(std::size_t m, std::size_t n, std::size_t tile_rows,
                          std::size_t tile_cols, std::vector<Tile>& out) {
  PDAC_REQUIRE(tile_rows >= 1 && tile_cols >= 1, "partition_tiles: tile dims must be positive");
  out.clear();
  if (m == 0 || n == 0) return;
  out.reserve(((m + tile_rows - 1) / tile_rows) * ((n + tile_cols - 1) / tile_cols));
  for (std::size_t i0 = 0; i0 < m; i0 += tile_rows) {
    const std::size_t h = std::min(tile_rows, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += tile_cols) {
      const std::size_t w = std::min(tile_cols, n - j0);
      out.push_back(Tile{i0, j0, h, w});
    }
  }
}

void partition_panels_into(std::size_t m, std::size_t n, std::size_t tile_rows,
                           std::size_t tile_cols, std::size_t parts, std::vector<Tile>& out) {
  PDAC_REQUIRE(tile_rows >= 1 && tile_cols >= 1 && parts >= 1,
               "partition_panels: tile dims and parts must be positive");
  out.clear();
  if (m == 0 || n == 0) return;
  const std::size_t col_tiles = (n + tile_cols - 1) / tile_cols;
  const std::size_t chunks = std::min(parts, col_tiles);
  out.reserve(((m + tile_rows - 1) / tile_rows) * chunks);
  for (std::size_t i0 = 0; i0 < m; i0 += tile_rows) {
    const std::size_t h = std::min(tile_rows, m - i0);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t j0 = c * col_tiles / chunks * tile_cols;
      const std::size_t j1 = std::min(n, (c + 1) * col_tiles / chunks * tile_cols);
      out.push_back(Tile{i0, j0, h, j1 - j0});
    }
  }
}

void fold_tile(const Tile& tile, double rescale, Matrix& c, std::span<double> rsum,
               std::span<double> csum) {
  const bool sums = !rsum.empty();
  if (sums) {
    std::fill(rsum.begin(), rsum.end(), 0.0);
    std::fill(csum.begin(), csum.end(), 0.0);
  }
  for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
    double* const row = c.row(i).data() + tile.col0;
    for (std::size_t b = 0; b < tile.cols; ++b) {
      const double raw = row[b];
      row[b] = raw * rescale;
      if (sums) {
        rsum[i - tile.row0] += raw;
        csum[b] += raw;
      }
    }
  }
}

void for_each_tile(ThreadPool& pool, const std::vector<Tile>& tiles,
                   const std::function<void(std::size_t, std::size_t)>& body) {
  pool.parallel_for(tiles.size(),
                    [&](std::size_t begin, std::size_t end, std::size_t worker) {
                      for (std::size_t t = begin; t < end; ++t) body(t, worker);
                    });
}

}  // namespace pdac::ptc
