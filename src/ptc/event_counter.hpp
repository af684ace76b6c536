// event_counter.hpp — hardware event accounting for the tensor core.
//
// The functional simulator counts every energy-bearing event while it
// computes; the architecture model (src/arch) later prices those events.
// Keeping counting separate from pricing lets the same functional run be
// evaluated under DAC-based and P-DAC-based cost models.
#pragma once

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
};

/// One h×w tile step on the Lightening-Transformer array with the
/// reduction of length k chunked over `lanes` usable wavelengths
/// (gemm_engine.hpp, broadcast amortization): the h A-rows and w
/// B-columns are modulated once each, every DDot runs ⌈k/lanes⌉ chunk
/// operations and detections, all h·w outputs are digitized, and the
/// concurrent DDots occupy the array for ⌈k/lanes⌉ cycles.
[[nodiscard]] inline EventCounter tile_step_events(std::size_t h, std::size_t w, std::size_t k,
                                                   std::size_t lanes) {
  const std::size_t chunks = (k + lanes - 1) / lanes;
  EventCounter ev;
  ev.modulation_events = (h + w) * k;
  ev.ddot_ops = h * w * chunks;
  ev.detection_events = h * w * chunks;
  ev.macs = h * w * k;
  ev.adc_events = h * w;
  ev.cycles = chunks;
  return ev;
}

}  // namespace pdac::ptc
