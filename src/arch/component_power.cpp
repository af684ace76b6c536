#include "arch/component_power.hpp"

#include <cmath>

#include "common/require.hpp"
#include "converters/electrical_adc.hpp"
#include "converters/electrical_dac.hpp"
#include "core/pdac.hpp"

namespace pdac::arch {

units::Power PowerBreakdown::total() const {
  units::Power sum{};
  for (const auto& part : parts) sum += part.power;
  return sum;
}

units::Power PowerBreakdown::power(Component c) const {
  for (const auto& part : parts) {
    if (part.component == c) return part.power;
  }
  return units::Power{};
}

double PowerBreakdown::share(Component c) const {
  const double t = total().watts();
  return t > 0.0 ? power(c).watts() / t : 0.0;
}

units::Power laser_power(const PowerParams& p, int bits) {
  PDAC_REQUIRE(bits >= 1, "laser_power: bits must be positive");
  const double scale = std::exp2(p.laser_bit_exponent * (static_cast<double>(bits) - 4.0));
  return units::watts(p.laser_base.watts() * scale);
}

units::Power dac_unit_power(const PowerParams& p, int bits) {
  // Delegate to the converter library's law so the device model and the
  // architecture model can never diverge.
  return converters::ElectricalDac::power_model(bits, units::gigahertz(5.0),
                                                p.dac_kappa_watts, units::gigahertz(5.0));
}

units::Power adc_unit_power(const PowerParams& p, int bits) {
  return converters::ElectricalAdc::power_model(bits, units::gigahertz(5.0),
                                                p.adc_per_bit_watts, units::gigahertz(5.0));
}

units::Power pdac_unit_power(const PowerParams& p, int bits) {
  return core::Pdac::power_model(bits, p.pdac_pd_ring_per_bit, p.pdac_tia_gain_unit,
                                 units::watts(0.0));
}

units::Power controller_power(const PowerParams& p, int bits) {
  PDAC_REQUIRE(bits >= 1, "controller_power: bits must be positive");
  return units::watts(p.controller_kappa_watts *
                      std::pow(static_cast<double>(bits), p.controller_bit_exponent));
}

units::Power receiver_digital_power(const PowerParams& p, int bits) {
  return units::watts(p.receiver_digital_per_bit_watts * static_cast<double>(bits));
}

units::Power static_power(const PowerParams& p, int bits) {
  return laser_power(p, bits) + p.thermal_tuning + receiver_digital_power(p, bits);
}

PowerBreakdown compute_power_breakdown(const LtConfig& cfg, const PowerParams& p, int bits,
                                       SystemVariant variant) {
  PDAC_REQUIRE(bits >= 2 && bits <= 16, "compute_power_breakdown: bits in [2, 16]");
  const double n_mod = static_cast<double>(cfg.modulator_channels());
  const double n_adc = static_cast<double>(cfg.adc_channels());

  PowerBreakdown b;
  b.variant = variant;
  b.bits = bits;
  b.parts.push_back({Component::kLaser, laser_power(p, bits)});
  if (variant == SystemVariant::kDacBased) {
    b.parts.push_back({Component::kDac, n_mod * dac_unit_power(p, bits)});
    b.parts.push_back({Component::kController, controller_power(p, bits)});
  } else {
    b.parts.push_back({Component::kPdac, n_mod * pdac_unit_power(p, bits)});
  }
  b.parts.push_back({Component::kAdc, n_adc * adc_unit_power(p, bits)});
  b.parts.push_back({Component::kThermal, p.thermal_tuning});
  b.parts.push_back({Component::kReceiverDigital, receiver_digital_power(p, bits)});
  return b;
}

std::string to_string(Component c) {
  switch (c) {
    case Component::kLaser: return "laser";
    case Component::kDac: return "DAC";
    case Component::kPdac: return "P-DAC";
    case Component::kAdc: return "ADC";
    case Component::kController: return "controller";
    case Component::kThermal: return "thermal-tuning";
    case Component::kReceiverDigital: return "receivers+digital";
  }
  return "?";
}

std::string to_string(SystemVariant v) {
  return v == SystemVariant::kDacBased ? "DAC-based" : "P-DAC-based";
}

}  // namespace pdac::arch
