#include "converters/electrical_adc.hpp"

#include "common/require.hpp"

namespace pdac::converters {

ElectricalAdc::ElectricalAdc(ElectricalAdcConfig cfg) : cfg_(cfg), quant_(cfg.bits) {
  PDAC_REQUIRE(cfg_.v_ref > 0.0, "ElectricalAdc: V_ref must be positive");
  PDAC_REQUIRE(cfg_.sample_rate.hertz() > 0.0, "ElectricalAdc: sample rate must be positive");
  PDAC_REQUIRE(cfg_.power_per_bit_watts > 0.0, "ElectricalAdc: power per bit must be positive");
}

std::int32_t ElectricalAdc::sample(double volts) const {
  return quant_.encode(volts / cfg_.v_ref);
}

double ElectricalAdc::sample_to_voltage(double volts) const {
  return quant_.decode(sample(volts)) * cfg_.v_ref;
}

void ElectricalAdc::sample_to_voltage(std::span<const double> volts, std::span<double> out) const {
  PDAC_REQUIRE(volts.size() == out.size(), "ElectricalAdc: sample span size mismatch");
  // decode(code) · V_ref: the same two roundings as the scalar readout.
  // encode_each reads each chunk whole first, so `out` may alias `volts`.
  const double mc = static_cast<double>(quant_.max_code());
  const double v_ref = cfg_.v_ref;
  quant_.encode_each(volts, v_ref, [&](std::size_t i, std::int32_t code) {
    out[i] = static_cast<double>(code) / mc * v_ref;
  });
}

units::Power ElectricalAdc::power() const {
  return power_model(cfg_.bits, cfg_.sample_rate, cfg_.power_per_bit_watts,
                     cfg_.reference_rate);
}

units::Energy ElectricalAdc::energy_per_conversion() const { return power() / cfg_.sample_rate; }

units::Power ElectricalAdc::power_model(int bits, units::Frequency rate, double per_bit_watts,
                                        units::Frequency reference_rate) {
  PDAC_REQUIRE(bits >= 1, "ElectricalAdc: bits must be positive");
  const double f_scale = rate.hertz() / reference_rate.hertz();
  return units::watts(per_bit_watts * static_cast<double>(bits) * f_scale);
}

}  // namespace pdac::converters
