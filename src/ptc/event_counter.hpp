// event_counter.hpp — hardware event accounting for the tensor core.
//
// The functional simulator counts every energy-bearing event while it
// computes; the architecture model (src/arch) later prices those events.
// Keeping counting separate from pricing lets the same functional run be
// evaluated under DAC-based and P-DAC-based cost models.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace pdac::ptc {

struct EventCounter {
  std::uint64_t modulation_events{};  ///< operand values imprinted on carriers
  std::uint64_t detection_events{};   ///< balanced-PD readouts (one per DDot op)
  std::uint64_t adc_events{};         ///< output samples digitized
  std::uint64_t ddot_ops{};           ///< WDM dot-product chunk operations
  std::uint64_t macs{};               ///< multiply–accumulates performed
  std::uint64_t cycles{};             ///< occupancy cycles on the array

  EventCounter& operator+=(const EventCounter& o) {
    modulation_events += o.modulation_events;
    detection_events += o.detection_events;
    adc_events += o.adc_events;
    ddot_ops += o.ddot_ops;
    macs += o.macs;
    cycles += o.cycles;
    return *this;
  }
  friend EventCounter operator+(EventCounter a, const EventCounter& b) { return a += b; }
  /// `r` repeats of the same work (per-head ops traced once with a count).
  friend EventCounter operator*(EventCounter a, std::uint64_t r) {
    a.modulation_events *= r;
    a.detection_events *= r;
    a.adc_events *= r;
    a.ddot_ops *= r;
    a.macs *= r;
    a.cycles *= r;
    return a;
  }
};

/// How a tile's B operand reaches the array (Lightening-Transformer's
/// broadcast organization).
enum class Residency {
  /// Static weights: the h A-rows and w B-columns are modulated once each
  /// and broadcast across the array, (h+w)·k conversions per tile step.
  kBroadcast,
  /// Dynamic–dynamic products (Q·Kᵀ, A·V): both operands are converted
  /// per DDot, 2·h·w·k conversions per tile step.
  kDynamic,
};

/// ADC window meaning "no window": one sample per output.
inline constexpr std::size_t kSamplePerOutput = 0;

/// One h×w tile step on the Lightening-Transformer array with the
/// reduction of length k chunked over `lanes` usable wavelengths: every
/// DDot runs ⌈k/lanes⌉ chunk operations and detections, and the
/// concurrent DDots occupy the array for ⌈k/lanes⌉ cycles.  The two rules
/// the executors and the analytic model (src/arch) may differ in are
/// inputs: the B operand's residency sets the modulations, and an ADC
/// window of d chunks takes h·w·⌈chunks/d⌉ samples, or one per output
/// under kSamplePerOutput.  Both executors count broadcast, one sample
/// per output; the analytic model passes each op's residency and
/// LtConfig::ddots_per_adc.
[[nodiscard]] inline EventCounter tile_step_events(std::size_t h, std::size_t w, std::size_t k,
                                                   std::size_t lanes, Residency b,
                                                   std::size_t adc_window) {
  const std::size_t chunks = (k + lanes - 1) / lanes;
  EventCounter ev;
  ev.modulation_events = b == Residency::kBroadcast ? (h + w) * k : 2 * h * w * k;
  ev.ddot_ops = h * w * chunks;
  ev.detection_events = h * w * chunks;
  ev.macs = h * w * k;
  ev.adc_events =
      adc_window == kSamplePerOutput ? h * w : h * w * ((chunks + adc_window - 1) / adc_window);
  ev.cycles = chunks;
  return ev;
}

/// The array an output is tiled onto: tiles of at most rows × cols
/// outputs, each reduction chunked over `lanes` wavelengths.
struct TileGrid {
  std::size_t rows{};
  std::size_t cols{};
  std::size_t lanes{};
};

/// `tile_events(h, w)` summed over the row-major tiling of an m×n output
/// on `grid` (partition_tiles' order; edge tiles are ragged).  The one
/// loop that counts events over an output's tiles.
template <class TileEvents>
[[nodiscard]] EventCounter sum_over_tiles(std::size_t m, std::size_t n, const TileGrid& grid,
                                          TileEvents&& tile_events) {
  EventCounter ev;
  for (std::size_t i0 = 0; i0 < m; i0 += grid.rows) {
    const std::size_t h = std::min(grid.rows, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += grid.cols) {
      ev += tile_events(h, std::min(grid.cols, n - j0));
    }
  }
  return ev;
}

/// Events of one m×k by k×n product: tile_step_events summed over its
/// tiling on `grid`.
[[nodiscard]] inline EventCounter product_events(std::size_t m, std::size_t k, std::size_t n,
                                                 const TileGrid& grid, Residency b,
                                                 std::size_t adc_window) {
  return sum_over_tiles(m, n, grid, [&](std::size_t h, std::size_t w) {
    return tile_step_events(h, w, k, grid.lanes, b, adc_window);
  });
}

}  // namespace pdac::ptc
