// modulator_driver.hpp — the two ways of putting a value on a carrier.
//
// The photonic tensor core needs one modulator driver per operand lane.
// This interface abstracts over the paper's two designs so the GEMM
// engine, the examples and the accuracy ablations can swap them freely:
//
//   IdealDacDriver — baseline: a controller computes V′₁ = arccos(r)
//     exactly, an electrical b-bit DAC synthesizes the voltage (adding
//     voltage-quantization error), the MZM modulates.  Costs controller
//     energy + DAC energy per conversion.
//
//   PdacDriver — proposed: the P-DAC converts the optical digital word
//     with the 3-segment linear program (adding the ≤8.5 % approximation
//     error), no controller, no electrical DAC.
//
// Both quantize the operand to b bits first; both return E_out/E_in for a
// unit carrier, i.e. the analog value actually computed with.
#pragma once

#include <memory>
#include <string>

#include "common/units.hpp"
#include "converters/electrical_dac.hpp"
#include "core/pdac.hpp"
#include "photonics/mzm.hpp"

namespace pdac::core {

class ModulatorDriver {
 public:
  virtual ~ModulatorDriver() = default;

  /// Encode a normalized value r ∈ [−1, 1]: returns the field amplitude
  /// the modulator imprints on a unit carrier (sign via optical phase).
  [[nodiscard]] virtual double encode(double r) const = 0;

  [[nodiscard]] virtual int bits() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Energy charged to the conversion chain per encoded value (the part
  /// the P-DAC changes; detection/ADC energy is charged elsewhere).
  [[nodiscard]] virtual units::Energy conversion_energy() const = 0;
};

struct IdealDacDriverConfig {
  int bits{8};
  photonics::MzmConfig mzm{};
  converters::ElectricalDacConfig dac{};
  /// Controller energy for the arccos computation per conversion.
  units::Energy controller_energy{units::picojoules(0.384).joules()};
};

class IdealDacDriver final : public ModulatorDriver {
 public:
  explicit IdealDacDriver(IdealDacDriverConfig cfg);

  [[nodiscard]] double encode(double r) const override;
  [[nodiscard]] int bits() const override { return cfg_.bits; }
  [[nodiscard]] std::string name() const override { return "ideal-dac"; }
  [[nodiscard]] units::Energy conversion_energy() const override;

  /// The phase actually synthesized for r (after DAC voltage quantization).
  [[nodiscard]] double synthesized_phase(double r) const;

 private:
  IdealDacDriverConfig cfg_;
  converters::Quantizer quant_;
  converters::ElectricalDac dac_;
  photonics::Mzm mzm_;
};

struct PdacDriverConfig {
  PdacConfig pdac{};
  units::Frequency clock{units::gigahertz(5.0).hertz()};
};

class PdacDriver final : public ModulatorDriver {
 public:
  explicit PdacDriver(PdacDriverConfig cfg);

  [[nodiscard]] double encode(double r) const override;
  [[nodiscard]] int bits() const override { return cfg_.pdac.bits; }
  [[nodiscard]] std::string name() const override { return "p-dac"; }
  [[nodiscard]] units::Energy conversion_energy() const override;

  [[nodiscard]] const Pdac& device() const { return device_; }

 private:
  PdacDriverConfig cfg_;
  Pdac device_;
};

/// Factory helpers used across examples/benches.
std::unique_ptr<ModulatorDriver> make_ideal_dac_driver(int bits);
std::unique_ptr<ModulatorDriver> make_pdac_driver(int bits, double breakpoint = 0.7236);

}  // namespace pdac::core
