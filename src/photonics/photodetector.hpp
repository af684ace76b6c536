// photodetector.hpp — photodiode + optional noise (paper §II-A2).
//
// A PD converts incident optical intensity into photocurrent:
//   I_pd = R · Σ_ch ½|E_ch|²
// integrating over all wavelengths present on its waveguide — the
// property the DDot exploits to sum (x_i ± y_i)² across WDM channels in
// a single detection.  Shot and thermal (Johnson) noise can be enabled
// to study the accelerator's analog noise floor.
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "photonics/optical_field.hpp"

namespace pdac::photonics {

struct NoiseConfig {
  bool enabled{false};
  double shot_noise_scale{0.0};    ///< std of shot noise ∝ sqrt(I); 0 disables
  double thermal_noise_std{0.0};   ///< additive Gaussian current noise std
};

struct PhotodetectorConfig {
  double responsivity{1.0};  ///< A/W in normalized units
  double dark_current{0.0};  ///< constant offset current
  NoiseConfig noise{};
};

class Photodetector {
 public:
  Photodetector() : Photodetector(PhotodetectorConfig{}) {}
  explicit Photodetector(PhotodetectorConfig cfg);

  /// Deterministic detection: R·total_intensity + dark current.
  [[nodiscard]] double detect(const WdmField& field) const;

  /// Closed-form transfer accessors for fused execution (ptc/kernel.hpp):
  /// detection is gain·I + dark with gain = responsivity.
  /// detect_intensity(field.total_intensity()) == detect(field) bit-for-bit.
  [[nodiscard]] double effective_responsivity() const { return cfg_.responsivity; }
  [[nodiscard]] double detect_intensity(double total_intensity) const {
    return effective_responsivity() * total_intensity + cfg_.dark_current;
  }

  /// Detection with the configured noise processes, drawn from `rng`.
  [[nodiscard]] double detect_noisy(const WdmField& field, Rng& rng) const;

  [[nodiscard]] const PhotodetectorConfig& config() const { return cfg_; }

 private:
  PhotodetectorConfig cfg_;
};

/// Transimpedance amplifier: V_out = R_f · I_in (paper Eq. 1), with an
/// optional output saturation modeling the supply rails.
class Tia {
 public:
  explicit Tia(double feedback_ohms, double v_sat = 0.0);

  [[nodiscard]] double amplify(double current) const;
  [[nodiscard]] double feedback() const { return rf_; }

 private:
  double rf_;
  double v_sat_;  ///< 0 means unbounded
};

}  // namespace pdac::photonics
