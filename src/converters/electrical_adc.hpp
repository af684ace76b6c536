// electrical_adc.hpp — readout ADC at the accelerator outputs.
//
// Both the DAC-based and P-DAC-based systems keep electrical ADCs to
// digitize the photodetector results, so the ADC is a *shared* component
// in every power breakdown (Fig. 5 / Fig. 11).  Power model: a SAR-style
// converter performs ~b comparison steps per sample, so P ∝ b·f; the
// paper's numbers give exactly a 2.0× ADC power ratio between the 8-bit
// and 4-bit systems, consistent with this law (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <span>

#include "common/units.hpp"
#include "converters/quantizer.hpp"

namespace pdac::converters {

struct ElectricalAdcConfig {
  int bits{8};
  double v_ref{1.0};  ///< full-scale input voltage
  units::Frequency sample_rate{units::gigahertz(5.0).hertz()};
  /// Per-bit power coefficient at f₀, watts (calibrated in power_params.hpp).
  double power_per_bit_watts{4.152e-3};
  units::Frequency reference_rate{units::gigahertz(5.0).hertz()};
};

class ElectricalAdc {
 public:
  explicit ElectricalAdc(ElectricalAdcConfig cfg);

  /// Digitize a voltage: clamp to ±V_ref, quantize to a signed b-bit code.
  [[nodiscard]] std::int32_t sample(double volts) const;

  /// Round-trip a voltage through the converter (what software reads back,
  /// expressed in volts again).  The scalar reference of the span form.
  [[nodiscard]] double sample_to_voltage(double volts) const;

  /// out[i] = sample_to_voltage(volts[i]) for a whole readout span, bit for
  /// bit: one span quantize (Quantizer::encode with divisor V_ref), then
  /// the same code / max_code · V_ref decode.  `out` may be `volts` itself.
  void sample_to_voltage(std::span<const double> volts, std::span<double> out) const;

  /// One code step in volts: V_ref over max_code, the spacing of the
  /// values sample_to_voltage returns.
  [[nodiscard]] double lsb() const {
    return cfg_.v_ref / static_cast<double>(quant_.max_code());
  }

  [[nodiscard]] units::Power power() const;
  [[nodiscard]] units::Energy energy_per_conversion() const;

  [[nodiscard]] const ElectricalAdcConfig& config() const { return cfg_; }

  static units::Power power_model(int bits, units::Frequency rate, double per_bit_watts,
                                  units::Frequency reference_rate);

 private:
  ElectricalAdcConfig cfg_;
  Quantizer quant_;
};

}  // namespace pdac::converters
