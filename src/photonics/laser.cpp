#include "photonics/laser.hpp"

#include "common/require.hpp"

namespace pdac::photonics {

Laser::Laser(LaserConfig cfg) : cfg_(cfg) {
  PDAC_REQUIRE(cfg_.channels >= 1, "Laser: at least one channel");
  PDAC_REQUIRE(cfg_.carrier_amplitude > 0.0, "Laser: carrier amplitude must be positive");
  PDAC_REQUIRE(cfg_.wall_plug_efficiency > 0.0 && cfg_.wall_plug_efficiency <= 1.0,
               "Laser: wall-plug efficiency in (0, 1]");
}

WdmField Laser::emit() const { return emit(cfg_.channels); }

WdmField Laser::emit(std::size_t active) const {
  PDAC_REQUIRE(active <= cfg_.channels, "Laser: more active channels than configured");
  WdmField f(cfg_.channels);
  for (std::size_t ch = 0; ch < active; ++ch) {
    f.set_amplitude(ch, Complex{cfg_.carrier_amplitude, 0.0});
  }
  return f;
}

units::Power Laser::electrical_power() const {
  const double optical_w =
      cfg_.optical_power_per_channel.watts() * static_cast<double>(cfg_.channels);
  return units::watts(optical_w / cfg_.wall_plug_efficiency);
}

}  // namespace pdac::photonics
