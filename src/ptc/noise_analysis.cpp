#include "ptc/noise_analysis.hpp"

#include <cmath>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ptc/ddot.hpp"

namespace pdac::ptc {

SnrReport measure_ddot_snr(const SnrConfig& cfg) {
  PDAC_REQUIRE(cfg.amplitude_scale > 0.0, "measure_ddot_snr: amplitude scale positive");
  PDAC_REQUIRE(cfg.trials >= 10, "measure_ddot_snr: need at least 10 trials");

  photonics::PhotodetectorConfig pd_cfg;
  pd_cfg.noise = cfg.noise;
  const Ddot noisy_ddot(photonics::PhaseShifter::minus_90(),
                        photonics::DirectionalCoupler::fifty_fifty(),
                        photonics::Photodetector(pd_cfg), photonics::Photodetector(pd_cfg));

  Rng rng(cfg.seed);
  const double s = cfg.amplitude_scale;
  const double norm = 1.0 / (s * s);  // detected currents scale with s²

  stats::Running signal, noise;
  DdotScratch scratch;
  for (int t = 0; t < cfg.trials; ++t) {
    photonics::DualRail rails{photonics::WdmField(cfg.wavelengths),
                              photonics::WdmField(cfg.wavelengths)};
    double clean = 0.0;
    for (std::size_t i = 0; i < cfg.wavelengths; ++i) {
      const double x = rng.uniform(-1.0, 1.0);
      const double y = rng.uniform(-1.0, 1.0);
      clean += x * y;
      rails.upper.set_amplitude(i, photonics::Complex{s * x, 0.0});
      rails.lower.set_amplitude(i, photonics::Complex{s * y, 0.0});
    }
    const double measured = noisy_ddot.compute_noisy(rails, rng, scratch).value() * norm;
    signal.add(clean);
    noise.add(measured - clean);
  }

  SnrReport rep;
  rep.signal_rms = std::sqrt(signal.variance() + signal.mean() * signal.mean());
  rep.noise_rms = std::sqrt(noise.variance() + noise.mean() * noise.mean());
  if (rep.noise_rms <= 0.0) {
    rep.snr_db = 200.0;  // effectively noiseless
  } else {
    rep.snr_db = 20.0 * std::log10(rep.signal_rms / rep.noise_rms);
  }
  rep.effective_bits = (rep.snr_db - 1.76) / 6.02;
  return rep;
}

double required_amplitude_scale(double target_bits, const SnrConfig& base,
                                double max_scale) {
  PDAC_REQUIRE(target_bits > 0.0, "required_amplitude_scale: target must be positive");
  auto enob_at = [&](double scale) {
    SnrConfig cfg = base;
    cfg.amplitude_scale = scale;
    return measure_ddot_snr(cfg).effective_bits;
  };
  double lo = 1e-3, hi = max_scale;
  if (enob_at(hi) < target_bits) return 0.0;
  if (enob_at(lo) >= target_bits) return lo;
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = std::sqrt(lo * hi);  // geometric bisection
    if (enob_at(mid) >= target_bits) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace pdac::ptc
