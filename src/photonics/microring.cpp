#include "photonics/microring.hpp"

#include <cmath>

#include "common/require.hpp"

namespace pdac::photonics {

Microring::Microring(MicroringConfig cfg) : cfg_(cfg) {
  PDAC_REQUIRE(cfg_.hwhm_channels > 0.0, "Microring: linewidth must be positive");
  PDAC_REQUIRE(cfg_.heater_power_per_channel_shift.watts() >= 0.0,
               "Microring: heater power must be non-negative");
}

void Microring::tune_to(double channel) { cfg_.resonance_channel = channel; }

double Microring::drop_fraction(double channel) const {
  const double detune = (channel - cfg_.resonance_channel) / cfg_.hwhm_channels;
  return 1.0 / (1.0 + detune * detune);
}

MrrPorts Microring::route(const WdmField& in) const {
  MrrPorts ports{WdmField(in.channels()), WdmField(in.channels())};
  for (std::size_t ch = 0; ch < in.channels(); ++ch) {
    const double d = drop_fraction(static_cast<double>(ch));
    const Complex a = in.amplitude(ch);
    // Power split d to drop, (1-d) to through; amplitudes scale as sqrt.
    ports.drop.set_amplitude(ch, std::sqrt(d) * a);
    ports.through.set_amplitude(ch, std::sqrt(1.0 - d) * a);
  }
  return ports;
}

WdmField Microring::add_to_bus(const WdmField& bus, const WdmField& add) const {
  PDAC_REQUIRE(bus.channels() == add.channels(), "Microring: channel count mismatch");
  WdmField out(bus.channels());
  for (std::size_t ch = 0; ch < bus.channels(); ++ch) {
    const double d = drop_fraction(static_cast<double>(ch));
    // The add-port field couples onto the bus with the same resonance
    // selectivity the drop port has; through light passes attenuated.
    out.set_amplitude(ch, std::sqrt(1.0 - d) * bus.amplitude(ch) +
                              std::sqrt(d) * add.amplitude(ch));
  }
  return out;
}

units::Power Microring::tuning_power(double rest_channel) const {
  const double shift = std::abs(cfg_.resonance_channel - rest_channel);
  return units::watts(cfg_.heater_power_per_channel_shift.watts() * shift);
}

}  // namespace pdac::photonics
