#include "core/modulator_driver.hpp"

#include <cmath>

#include "common/math_utils.hpp"
#include "common/require.hpp"

namespace pdac::core {

IdealDacDriver::IdealDacDriver(IdealDacDriverConfig cfg)
    : cfg_(cfg), quant_(cfg.bits), dac_([&cfg] {
        converters::ElectricalDacConfig d = cfg.dac;
        d.bits = cfg.bits;  // the DAC resolution tracks the operand width
        return d;
      }()),
      mzm_(cfg.mzm) {}

double IdealDacDriver::synthesized_phase(double r) const {
  const double rq = quant_.quantize(math::clamp_unit(r));
  const double phase = std::acos(rq);  // the controller's exact computation
  // The DAC synthesizes the arm voltage with b-bit resolution over the
  // phase range [0, π] (full-range drive).  Normalize, quantize, restore.
  const double normalized = phase / math::kPi * 2.0 - 1.0;  // [0,π] -> [-1,1]
  const double quantized = quant_.quantize(normalized);
  return (quantized + 1.0) * 0.5 * math::kPi;
}

double IdealDacDriver::encode(double r) const {
  const photonics::Complex out =
      mzm_.modulate_pushpull(photonics::Complex{1.0, 0.0}, synthesized_phase(r));
  return out.real();
}

units::Energy IdealDacDriver::conversion_energy() const {
  return dac_.energy_per_conversion() + cfg_.controller_energy;
}

PdacDriver::PdacDriver(PdacDriverConfig cfg) : cfg_(cfg), device_(cfg.pdac) {
  PDAC_REQUIRE(cfg_.clock.hertz() > 0.0, "PdacDriver: clock must be positive");
}

double PdacDriver::encode(double r) const { return device_.convert_value(math::clamp_unit(r)); }

units::Energy PdacDriver::conversion_energy() const { return device_.power() / cfg_.clock; }

std::unique_ptr<ModulatorDriver> make_ideal_dac_driver(int bits) {
  IdealDacDriverConfig cfg;
  cfg.bits = bits;
  return std::make_unique<IdealDacDriver>(cfg);
}

std::unique_ptr<ModulatorDriver> make_pdac_driver(int bits, double breakpoint) {
  PdacDriverConfig cfg;
  cfg.pdac.bits = bits;
  cfg.pdac.breakpoint = breakpoint;
  return std::make_unique<PdacDriver>(cfg);
}

}  // namespace pdac::core
