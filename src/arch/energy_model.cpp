#include "arch/energy_model.hpp"

#include <utility>

#include "common/require.hpp"

namespace pdac::arch {

namespace {

/// Per-event energies, consistent with the compute-bound power model: at
/// 100 % utilization, events/s × energy/event equals the component's
/// Fig. 11 power by construction.  The one set of rates every pricing
/// function reads.
struct EventRates {
  double f{};         ///< array clock [Hz]
  double e_mod{};     ///< per modulation [J]: DAC + controller share, or P-DAC
  double e_adc{};     ///< per ADC sample [J]
  double p_static{};  ///< laser + thermal tuning + receiver digital [W]
};

EventRates event_rates(const LtConfig& cfg, const PowerParams& params, int bits,
                       SystemVariant variant) {
  PDAC_REQUIRE(bits >= 2 && bits <= 16, "energy model: bits in [2, 16]");
  const double f = cfg.clock.hertz();
  const double n_mod = static_cast<double>(cfg.modulator_channels());
  const double e_mod =
      variant == SystemVariant::kDacBased
          ? dac_unit_power(params, bits).watts() / f +
                controller_power(params, bits).watts() / (n_mod * f)
          : pdac_unit_power(params, bits).watts() / f;
  return {.f = f,
          .e_mod = e_mod,
          .e_adc = adc_unit_power(params, bits).watts() / f,
          .p_static = static_power(params, bits).watts()};
}

/// op_energy under rates `r`, which evaluate_energy derives once per trace.
OpEnergy price(const nn::GemmOp& op, const LtConfig& cfg, const PowerParams& params, int bits,
               const EventRates& r) {
  OpEnergy out;
  out.events = analytic_events(op, cfg);
  const ptc::EventCounter& ev = out.events;
  EnergyBreakdown& e = out.energy;
  e.modulation = units::joules(static_cast<double>(ev.modulation_events) * r.e_mod);
  e.adc = units::joules(static_cast<double>(ev.adc_events) * r.e_adc);
  // Tiles are distributed over all arrays; occupancy is the wall time.
  const double wall_seconds =
      static_cast<double>(ev.cycles) / static_cast<double>(cfg.arrays()) / r.f;
  e.static_power = units::joules(r.p_static * wall_seconds);
  e.movement = units::joules(static_cast<double>(op.moved_elements()) *
                             static_cast<double>(bits) * params.sram_energy_per_bit.joules());
  return out;
}

/// The breakdown of op class `c` in `we`, for folding into.
EnergyBreakdown& class_slot(WorkloadEnergy& we, nn::OpClass c) {
  return const_cast<EnergyBreakdown&>(std::as_const(we).of(c));
}

}  // namespace

const EnergyBreakdown& WorkloadEnergy::of(nn::OpClass c) const {
  switch (c) {
    case nn::OpClass::kAttention: return attention;
    case nn::OpClass::kFfn: return ffn;
    case nn::OpClass::kConv: return conv;
    case nn::OpClass::kOther: return other;
  }
  return other;
}

ptc::EventCounter analytic_events(const nn::GemmOp& op, const LtConfig& cfg) {
  return ptc::product_events(op.m, op.k, op.n,
                             {cfg.array_rows, cfg.array_cols, cfg.wavelengths}, op.residency(),
                             cfg.ddots_per_adc) *
         op.repeats;
}

OpEnergy op_energy(const nn::GemmOp& op, const LtConfig& cfg, const PowerParams& params,
                   int bits, SystemVariant variant) {
  return price(op, cfg, params, bits, event_rates(cfg, params, bits, variant));
}

WorkloadEnergy evaluate_energy(const nn::WorkloadTrace& trace, const LtConfig& cfg,
                               const PowerParams& params, int bits, SystemVariant variant) {
  const EventRates r = event_rates(cfg, params, bits, variant);
  WorkloadEnergy out;
  out.variant = variant;
  out.bits = bits;

  for (const auto& op : trace.gemms) {
    const OpEnergy e = price(op, cfg, params, bits, r);
    out.wall_cycles += e.events.cycles / cfg.arrays();
    class_slot(out, op.op_class) += e.energy;
  }

  const double e_vec_bit = params.vector_energy_per_element_bit.joules();
  for (const auto& vop : trace.vector_ops) {
    class_slot(out, vop.op_class).vector_unit += units::joules(
        static_cast<double>(vop.elements) * static_cast<double>(bits) * e_vec_bit);
  }

  out.runtime = units::seconds(static_cast<double>(out.wall_cycles) / r.f);
  return out;
}

double EnergyComparison::total_saving() const {
  const double base = baseline.total().total().joules();
  return base > 0.0 ? 1.0 - pdac.total().total().joules() / base : 0.0;
}

double EnergyComparison::saving(nn::OpClass c) const {
  const double base = baseline.of(c).total().joules();
  return base > 0.0 ? 1.0 - pdac.of(c).total().joules() / base : 0.0;
}

units::Energy recalibration_energy(const RecalibrationCost& cost, const LtConfig& cfg,
                                   const PowerParams& params, int bits,
                                   SystemVariant variant) {
  const EventRates r = event_rates(cfg, params, bits, variant);

  // Probe: one code driven through the modulator, one sample read back.
  const double probes = static_cast<double>(cost.probe_events) * (r.e_mod + r.e_adc);

  // Re-trim fit: three banks of least squares over ~2(b+1) probe rows of
  // b+2 terms each, executed on the digital vector unit.
  const double b = static_cast<double>(bits);
  const double fit_elements = 3.0 * 2.0 * (b + 1.0) * (b + 2.0);
  const double retrims = static_cast<double>(cost.retrims) * fit_elements * b *
                         params.vector_energy_per_element_bit.joules();

  // Remap: a displaced tile re-stages its H row and W column operand
  // vectors (one value per wavelength) from SRAM onto the new array.
  const double tile_bits = static_cast<double>(cfg.array_rows + cfg.array_cols) *
                           static_cast<double>(cfg.wavelengths) * b;
  const double remaps = static_cast<double>(cost.remapped_tiles) * tile_bits *
                        params.sram_energy_per_bit.joules();

  return units::joules(probes + retrims + remaps);
}

units::Energy event_energy(const ptc::EventCounter& events, const LtConfig& cfg,
                           const PowerParams& params, int bits, SystemVariant variant) {
  const EventRates r = event_rates(cfg, params, bits, variant);
  // The counter's cycles are occupancy on one array, so the static term
  // is charged over exactly that wall time.
  const double joules = static_cast<double>(events.modulation_events) * r.e_mod +
                        static_cast<double>(events.adc_events) * r.e_adc +
                        r.p_static * static_cast<double>(events.cycles) / r.f;
  return units::joules(joules);
}

EnergyComparison compare_energy(const nn::WorkloadTrace& trace, const LtConfig& cfg,
                                const PowerParams& params, int bits) {
  return EnergyComparison{
      evaluate_energy(trace, cfg, params, bits, SystemVariant::kDacBased),
      evaluate_energy(trace, cfg, params, bits, SystemVariant::kPdacBased)};
}

}  // namespace pdac::arch
