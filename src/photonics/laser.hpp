// laser.hpp — multi-wavelength laser source (WDM comb).
//
// Supplies the optical carriers every modulator in the accelerator
// imprints data on.  The power model in src/arch charges laser wall-plug
// power separately; this device produces the *fields*: one carrier of
// amplitude E_in per enabled channel, with a configurable wall-plug
// efficiency used when a bench asks the device itself for power.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "photonics/optical_field.hpp"

namespace pdac::photonics {

/// Configuration of a WDM comb laser.
struct LaserConfig {
  std::size_t channels{8};          ///< number of WDM wavelengths
  double carrier_amplitude{1.0};    ///< |E_in| per channel (normalized units)
  double wall_plug_efficiency{0.2}; ///< optical-out / electrical-in
  units::Power optical_power_per_channel{units::milliwatts(1.0).watts()};
};

/// Continuous-wave WDM comb source.
class Laser {
 public:
  explicit Laser(LaserConfig cfg);

  /// Emit carriers on all channels: amplitude = carrier_amplitude, phase 0.
  [[nodiscard]] WdmField emit() const;

  /// Emit with only the first `active` channels lit (sub-comb operation).
  [[nodiscard]] WdmField emit(std::size_t active) const;

  /// Electrical power drawn for the currently configured comb.
  [[nodiscard]] units::Power electrical_power() const;

  [[nodiscard]] const LaserConfig& config() const { return cfg_; }

 private:
  LaserConfig cfg_;
};

}  // namespace pdac::photonics
