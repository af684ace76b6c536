// microring.hpp — microring resonator (MRR) used as WDM mux/demux and as
// the on–off modulator of the multi-bit EO interface (paper Fig. 1–2).
//
// The MRR resonates when its (thermally tuned) resonance matches a
// wavelength on the bus; matched light is captured to the drop port,
// off-resonance light continues on the through port.  We model the
// power transfer with a Lorentzian in channel-grid units:
//   D(Δ) = 1 / (1 + (Δ / HWHM)²)      (drop-port power fraction)
// and keep the device lossless: |through|² + |drop|² = |in|² per channel.
// This captures exactly the behaviour the accelerator depends on —
// wavelength selectivity and channel crosstalk — without a full
// coupled-mode treatment.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "photonics/optical_field.hpp"

namespace pdac::photonics {

struct MicroringConfig {
  double resonance_channel{0.0};  ///< resonance position on the channel grid
  double hwhm_channels{0.05};     ///< half-width at half-max, in channel spacings
  units::Power heater_power_per_channel_shift{units::milliwatts(0.5).watts()};
};

/// Result of routing a WDM bus through an MRR: the attenuated bus
/// (through port) plus the captured field (drop port).
struct MrrPorts {
  WdmField through;
  WdmField drop;
};

class Microring {
 public:
  explicit Microring(MicroringConfig cfg);

  /// Thermally tune the resonance to a (possibly fractional) channel.
  void tune_to(double channel);
  [[nodiscard]] double resonance() const { return cfg_.resonance_channel; }

  /// Drop-port power fraction for a wavelength at grid position `channel`.
  [[nodiscard]] double drop_fraction(double channel) const;

  /// Split an incoming bus into through/drop fields (lossless).
  [[nodiscard]] MrrPorts route(const WdmField& in) const;

  /// Add (multiplex) a field onto the bus: channels near resonance are
  /// injected from `add`, superposing with whatever the bus carries.
  [[nodiscard]] WdmField add_to_bus(const WdmField& bus, const WdmField& add) const;

  /// Heater power for the current detuning from `rest_channel` — the
  /// thermal-tuning component of the architecture power model.
  [[nodiscard]] units::Power tuning_power(double rest_channel) const;

  [[nodiscard]] const MicroringConfig& config() const { return cfg_; }

 private:
  MicroringConfig cfg_;
};

}  // namespace pdac::photonics
