// component_power.hpp — system-level power breakdowns (paper Fig. 5 and
// Fig. 11).
//
// Computes per-component power for a fully compute-bound LT-B under the
// two system variants: the traditional DAC-based modulator chain and the
// P-DAC-based chain (which removes the electrical DACs *and* the arccos
// controller).
#pragma once

#include <string>
#include <vector>

#include "arch/lt_config.hpp"
#include "arch/power_params.hpp"
#include "common/units.hpp"

namespace pdac::arch {

enum class SystemVariant { kDacBased, kPdacBased };

enum class Component {
  kLaser,
  kDac,         ///< electrical DACs (baseline only)
  kPdac,        ///< photonic DACs incl. integrated MZMs (P-DAC system only)
  kAdc,
  kController,  ///< arccos/drive computation (baseline only)
  kThermal,     ///< ring thermal tuning
  kReceiverDigital,  ///< output PD/TIAs, clocking, digital control
};

struct ComponentPower {
  Component component;
  units::Power power;
};

struct PowerBreakdown {
  SystemVariant variant{SystemVariant::kDacBased};
  int bits{8};
  std::vector<ComponentPower> parts;

  [[nodiscard]] units::Power total() const;
  [[nodiscard]] double share(Component c) const;  ///< fraction of total
  [[nodiscard]] units::Power power(Component c) const;
};

// --- unit/component power laws (all calibrated in power_params.hpp) --------
units::Power laser_power(const PowerParams& p, int bits);
units::Power dac_unit_power(const PowerParams& p, int bits);
units::Power adc_unit_power(const PowerParams& p, int bits);
units::Power pdac_unit_power(const PowerParams& p, int bits);
units::Power controller_power(const PowerParams& p, int bits);
units::Power receiver_digital_power(const PowerParams& p, int bits);
/// Laser + thermal tuning + receivers/digital: the power that burns
/// whenever the system is on, computing or stalled.
units::Power static_power(const PowerParams& p, int bits);

/// Full-system breakdown in the compute-bound scenario.
PowerBreakdown compute_power_breakdown(const LtConfig& cfg, const PowerParams& p, int bits,
                                       SystemVariant variant);

std::string to_string(Component c);
std::string to_string(SystemVariant v);

}  // namespace pdac::arch
