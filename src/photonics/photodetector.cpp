#include "photonics/photodetector.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace pdac::photonics {

Photodetector::Photodetector(PhotodetectorConfig cfg) : cfg_(cfg) {
  PDAC_REQUIRE(cfg_.responsivity > 0.0, "Photodetector: responsivity must be positive");
  PDAC_REQUIRE(cfg_.dark_current >= 0.0, "Photodetector: dark current must be non-negative");
}

double Photodetector::detect(const WdmField& field) const {
  return detect_intensity(field.total_intensity());
}

double Photodetector::detect_noisy(const WdmField& field, Rng& rng) const {
  double i = detect(field);
  if (cfg_.noise.enabled) {
    if (cfg_.noise.shot_noise_scale > 0.0) {
      i += rng.gaussian(0.0, cfg_.noise.shot_noise_scale * std::sqrt(std::max(i, 0.0)));
    }
    if (cfg_.noise.thermal_noise_std > 0.0) {
      i += rng.gaussian(0.0, cfg_.noise.thermal_noise_std);
    }
  }
  return i;
}

Tia::Tia(double feedback_ohms, double v_sat) : rf_(feedback_ohms), v_sat_(v_sat) {
  PDAC_REQUIRE(std::isfinite(feedback_ohms), "Tia: feedback must be finite");
  PDAC_REQUIRE(v_sat >= 0.0, "Tia: saturation voltage must be non-negative (0 = none)");
}

double Tia::amplify(double current) const {
  const double v = rf_ * current;
  if (v_sat_ <= 0.0) return v;
  return std::clamp(v, -v_sat_, v_sat_);
}

}  // namespace pdac::photonics
