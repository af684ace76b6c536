// dot_engine.hpp — one photonic dot-product lane: modulator drivers on
// both operand rails, WDM chunking, DDot detection, optional ADC readout.
//
// Every single-dot entry runs one chunk loop: chunk position i rides
// channel i, and each chunk is either staged through the Ddot device
// (full optics) or accumulated as Σ x′_i·y′_i directly — valid because
// the DDot datapath is exact (Eq. 6), so the only deviations from math
// come from the *encoders*.  dot() is dot_preencoded() of the encoded
// operands plus the standalone charges; dot_noisy() differs from it only
// in its detection call.  The fast path makes layer-scale experiments
// tractable; encode results are memoized per quantized code (the driver
// is deterministic).  Degraded lane packing is the faults layer's
// (faults::LaneBank channels, PreparedOperand::channels).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "converters/electrical_adc.hpp"
#include "core/modulator_driver.hpp"
#include "ptc/ddot.hpp"
#include "ptc/event_counter.hpp"

namespace pdac::ptc {

struct DotEngineConfig {
  std::size_t wavelengths{8};  ///< WDM channels per DDot operation
  bool use_full_optics{false}; ///< run every chunk through the Ddot device
  bool adc_readout{false};     ///< digitize the accumulated result
  int adc_bits{8};
  double adc_full_scale{0.0};  ///< 0 = auto (vector length)
  /// Photodetector noise for dot_noisy() (ignored by the deterministic
  /// dot() path).
  photonics::NoiseConfig pd_noise{};
};

/// The readout ADC for reductions of length n, or nullopt when `cfg`
/// reads out without one: adc_bits wide, full scale adc_full_scale, or n
/// (at least 1) when that is 0.  The one ADC rule of the single-dot
/// paths, the fused kernel's tiles and calibrate_guard_sigma's step.
[[nodiscard]] std::optional<converters::ElectricalAdc> readout_adc(const DotEngineConfig& cfg,
                                                                   std::size_t n);

class PhotonicDotEngine {
 public:
  /// The driver must outlive the engine (it is the modulator bank).
  PhotonicDotEngine(const core::ModulatorDriver& driver, DotEngineConfig cfg);

  /// Inner product of normalized operands (|x_i|, |y_i| ≤ 1): both are
  /// encoded, then reduced exactly as dot_preencoded() reduces them.
  /// Events are accumulated into `ev` when non-null using the
  /// *standalone* dot convention: dot_preencoded()'s charges plus 2·n
  /// modulations (a lone dot modulates both operands afresh), ⌈n/λ⌉
  /// cycles and one ADC sample when digitizing.  (The GEMM engine
  /// instead charges modulations per tile — broadcast amortized — see
  /// gemm_engine.hpp for the reconciliation contract.)
  [[nodiscard]] double dot(std::span<const double> x, std::span<const double> y,
                           EventCounter* ev = nullptr) const;

  /// Same product through the full optical path with the configured
  /// photodetector noise drawn from `rng` — the functional companion of
  /// the SNR analysis (noise_analysis.hpp).  Applies the same ADC
  /// readout and event accounting as dot(): the same chunk loop with a
  /// noisy detection call, so noise ablations compare like against like.
  [[nodiscard]] double dot_noisy(std::span<const double> x, std::span<const double> y,
                                 Rng& rng, EventCounter* ev = nullptr) const;

  /// Inner product of operands that are ALREADY encoded amplitudes (the
  /// output of encode()/encode_span()).  This is the tile-parallel GEMM
  /// engine's hot path: rows and columns are encoded once per tile
  /// stripe and broadcast, so the reduction itself performs no encoding.
  /// Counts only the reduction's own events (detection, DDot ops, MACs);
  /// modulation, ADC samples and cycle occupancy are charged by the
  /// caller, which knows the broadcast geometry.  The optional `ddot`
  /// lets each worker thread reduce through its own device instance;
  /// numerics are identical to dot() on the pre-image operands.
  /// The optional `scratch` stages the full-optics rails in caller-owned
  /// buffers so the device-graph path performs no per-dot allocation
  /// (bit-identical to a local scratch; pass one per worker).  The
  /// optional `readout` is the converter readout_adc(config(), n) builds
  /// for this length, built once by a caller running many dots of one
  /// length (the GEMM's device-graph tier, once per tile); null builds it
  /// per call.
  [[nodiscard]] double dot_preencoded(
      std::span<const double> xe, std::span<const double> ye, EventCounter* ev = nullptr,
      const Ddot* ddot = nullptr, DdotScratch* scratch = nullptr,
      const std::optional<converters::ElectricalAdc>* readout = nullptr) const;

  /// Encode a span of normalized values through the memoized driver LUT
  /// (out.size() must equal in.size()): one span quantize
  /// (Quantizer::encode_each, DESIGN.md §18), then a LUT read per code —
  /// bit-identical to encode() per element.  Pure and safe to call from
  /// multiple threads: the LUT is immutable after construction.
  void encode_span(std::span<const double> in, std::span<double> out) const;

  /// A fresh Ddot configured like this engine's own — worker threads use
  /// one each so device objects are never shared mutably.
  [[nodiscard]] Ddot make_worker_ddot() const;

  /// The engine's own device chain — what the fused kernel (kernel.hpp)
  /// snapshots its coefficient table from.
  [[nodiscard]] const Ddot& ddot() const { return ddot_; }

  /// Encoded amplitude for a normalized value (memoized driver output).
  [[nodiscard]] double encode(double r) const;

  [[nodiscard]] const DotEngineConfig& config() const { return cfg_; }
  [[nodiscard]] const core::ModulatorDriver& driver() const { return driver_; }

 private:
  /// The one chunk loop behind every entry: chunk position i rides
  /// channel i; under full optics each chunk is staged in `scratch.rails`
  /// (idle channels exact +0) and read out by `detect(scratch)`, else it
  /// accumulates Σ x′·y′ directly.  Charges each chunk's detection, DDot
  /// op and MACs, and returns the accumulated value through `adc` (the
  /// readout_adc of this length) when there is one (the sample itself is
  /// not charged here).
  template <typename Detect>
  [[nodiscard]] double reduce(std::span<const double> xe, std::span<const double> ye,
                              bool full_optics, DdotScratch& scratch,
                              const std::optional<converters::ElectricalAdc>& adc,
                              EventCounter* ev, const Detect& detect) const;
  /// dot() and dot_noisy(): encode both operands, reduce them and add the
  /// standalone charges.
  template <typename Detect>
  [[nodiscard]] double standalone_dot(std::span<const double> x, std::span<const double> y,
                                      bool full_optics, EventCounter* ev,
                                      const Detect& detect) const;

  const core::ModulatorDriver& driver_;
  DotEngineConfig cfg_;
  Ddot ddot_;
  converters::Quantizer quant_;
  std::vector<double> encode_lut_;  ///< index = code + max_code
};

}  // namespace pdac::ptc
