// tile_scheduler.hpp — output-stationary tile partition for the GEMM
// execution engine.
//
// An (m × n) output matrix maps onto the H × W DDot array as a grid of
// tiles, row-major: the i-axis is cut into ⌈m/H⌉ stripes of height ≤ H,
// the j-axis into ⌈n/W⌉ stripes of width ≤ W.  One tile is one
// hardware "tile step": its H rows of A and W columns of B are each
// modulated once and broadcast across the array, so tiles are also the
// unit of event accounting ((h + w)·k modulations per step).
//
// Tiles are independent — every output element belongs to exactly one
// tile — which is what makes the engine embarrassingly parallel while
// staying bit-identical to serial execution: each element's reduction
// order is fixed inside its dot product.  Tiles are also the unit of
// guard verdicts and storm steps; an unguarded PhotonicGemm product
// groups them into row panels (partition_panels_into), its unit of
// kernel calls.
//
// fold_tile is the one fold of both executors (PhotonicGemm and the
// faults-layer lane executor): a tile's or panel's raw, post-ADC dots
// become rescaled outputs, and guarded products also get the tile's raw
// row and column sums for the checksum verdict.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/thread_pool.hpp"

namespace pdac::ptc {

/// One output tile: rows [row0, row0+rows) × cols [col0, col0+cols).
struct Tile {
  std::size_t row0{};
  std::size_t col0{};
  std::size_t rows{};
  std::size_t cols{};
};

/// Row-major tile grid covering an (m × n) output with tiles of at most
/// (tile_rows × tile_cols) — edge tiles are ragged.  The returned order
/// matches PhotonicGemm::count_events' loop order exactly.
[[nodiscard]] std::vector<Tile> partition_tiles(std::size_t m, std::size_t n,
                                                std::size_t tile_rows, std::size_t tile_cols);

/// Same partition written into `out` (cleared first), so per-engine
/// scratch can reuse its allocation across repeated products.
void partition_tiles_into(std::size_t m, std::size_t n, std::size_t tile_rows,
                          std::size_t tile_cols, std::vector<Tile>& out);

/// Row panels of an (m × n) output, the unit of kernel calls of an
/// unguarded product (DESIGN.md §9), written into `out` (cleared first):
/// each tile_rows-high row stripe across the whole width, cut on
/// tile_cols boundaries into min(parts, ⌈n/tile_cols⌉) column chunks of
/// near-equal tile counts, stripes in order and chunks left to right.
/// With `parts` the pool width, each worker runs about one chunk per
/// stripe.  Tiles stay the unit of events, verdicts and storm steps.
void partition_panels_into(std::size_t m, std::size_t n, std::size_t tile_rows,
                           std::size_t tile_cols, std::size_t parts, std::vector<Tile>& out);

/// Fold one finished tile (or panel) of raw dot values in place: c(i, j) = raw ·
/// rescale.  When `rsum`/`csum` are non-empty (tile.rows and tile.cols
/// long) they are reset, then receive each raw value in row-major order —
/// rsum[i − row0] and csum[j − col0] — the order the guard's bit-identity
/// needs.
void fold_tile(const Tile& tile, double rescale, Matrix& c, std::span<double> rsum = {},
               std::span<double> csum = {});

/// Dispatch `body(tile_index, worker)` over every tile on the pool.
/// Workers receive disjoint contiguous runs of the tile list (static
/// partition), so per-worker device state needs no locking; per-tile
/// outputs indexed by tile_index are written exactly once.
void for_each_tile(ThreadPool& pool, const std::vector<Tile>& tiles,
                   const std::function<void(std::size_t tile_index, std::size_t worker)>& body);

}  // namespace pdac::ptc
