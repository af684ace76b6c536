// dot_engine.hpp — one photonic dot-product lane: modulator drivers on
// both operand rails, WDM chunking, DDot detection, optional ADC readout.
//
// Two execution paths compute identical results (a property test pins
// them together):
//   * full-optics: build WdmField rails, run the Ddot device — the
//     physically faithful path;
//   * fast: use the driver's encoded amplitudes directly and accumulate
//     Σ x′_i·y′_i — valid because the DDot datapath is exact (Eq. 6),
//     so the only deviations from math come from the *encoders*.
// The fast path makes layer-scale experiments tractable; encode results
// are memoized per quantized code (the driver is deterministic).
#pragma once

#include <cstdint>
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
  /// Graceful degradation: per-wavelength health mask (non-zero = usable).
  /// Empty means all lanes healthy.  Dead lanes are skipped — operands
  /// pack onto the surviving wavelengths only, so a chunk reduces fewer
  /// elements and the same vector costs more cycles (throughput loss the
  /// event counts report honestly).
  std::vector<std::uint8_t> lane_mask{};
};

class PhotonicDotEngine {
 public:
  /// The driver must outlive the engine (it is the modulator bank).
  PhotonicDotEngine(const core::ModulatorDriver& driver, DotEngineConfig cfg);

  /// Inner product of normalized operands (|x_i|, |y_i| ≤ 1).  Events are
  /// accumulated into `ev` when non-null using the *standalone* dot
  /// convention: a lone dot product modulates both operands afresh, so
  /// each chunk charges 2·len modulation events.  (The GEMM engine
  /// instead charges modulations per tile — broadcast amortized — see
  /// gemm_engine.hpp for the reconciliation contract.)
  [[nodiscard]] double dot(std::span<const double> x, std::span<const double> y,
                           EventCounter* ev = nullptr) const;

  /// Same product through the full optical path with the configured
  /// photodetector noise drawn from `rng` — the functional companion of
  /// the SNR analysis (noise_analysis.hpp).  Applies the same ADC
  /// readout and event accounting as dot(): apart from the detector
  /// noise draw the two paths run the identical pipeline, so noise
  /// ablations compare like against like.
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
  /// (bit-identical either way; pass one scratch per worker).
  [[nodiscard]] double dot_preencoded(std::span<const double> xe, std::span<const double> ye,
                                      EventCounter* ev = nullptr, const Ddot* ddot = nullptr,
                                      DdotScratch* scratch = nullptr) const;

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

  /// Usable wavelengths after the lane mask (== wavelengths when healthy).
  [[nodiscard]] std::size_t active_wavelengths() const { return active_lanes_.size(); }

  [[nodiscard]] const DotEngineConfig& config() const { return cfg_; }
  [[nodiscard]] const core::ModulatorDriver& driver() const { return driver_; }

 private:
  /// Digitize an accumulated readout when cfg_.adc_readout is on; `ev`
  /// (when non-null) is charged one ADC sample.
  [[nodiscard]] double apply_adc(double acc, std::size_t n, EventCounter* ev) const;

  const core::ModulatorDriver& driver_;
  DotEngineConfig cfg_;
  Ddot ddot_;
  converters::Quantizer quant_;
  std::vector<double> encode_lut_;       ///< index = code + max_code
  std::vector<std::size_t> active_lanes_; ///< channel indices operands pack onto
};

}  // namespace pdac::ptc
