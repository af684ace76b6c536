// trace_export — export per-op energy accounting as CSV for downstream
// plotting (the machine-readable companion to the Fig. 9/10 benches).
//
// Usage:
//   trace_export [bert|deit] [bits] [seq_len] > energy.csv
// Emits one row per GEMM op with dimensions, class, residency, event
// counts and both variants' energy terms.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "arch/energy_model.hpp"
#include "arch/power_params.hpp"
#include "nn/model_config.hpp"
#include "nn/workload_trace.hpp"

int main(int argc, char** argv) {
  using namespace pdac;

  const std::string model_name = argc > 1 ? argv[1] : "bert";
  const int bits = argc > 2 ? std::atoi(argv[2]) : 8;
  const std::size_t seq = argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 128;
  if (bits < 2 || bits > 16) {
    std::fprintf(stderr, "trace_export: bits must be in [2, 16], the energy model's range\n");
    return 2;
  }

  const nn::TransformerConfig model =
      model_name == "deit" ? nn::deit_base() : nn::bert_base(seq);
  const arch::LtConfig cfg = arch::lt_base();
  const arch::PowerParams params = arch::lt_power_params();
  const nn::WorkloadTrace trace = nn::trace_forward(model);

  std::printf(
      "label,class,m,k,n,repeats,residency,macs,modulations,adc_samples,"
      "tile_cycles,moved_bits,e_mod_dac_nj,e_mod_pdac_nj,e_adc_nj,e_static_nj,"
      "e_movement_nj\n");
  for (const auto& op : trace.gemms) {
    // Events and every term but the modulation are variant-independent.
    const arch::OpEnergy dac =
        arch::op_energy(op, cfg, params, bits, arch::SystemVariant::kDacBased);
    const arch::OpEnergy pdac =
        arch::op_energy(op, cfg, params, bits, arch::SystemVariant::kPdacBased);
    const ptc::EventCounter& ev = dac.events;
    const double moved_bits = static_cast<double>(op.moved_elements()) * bits;
    std::printf("%s,%s,%zu,%zu,%zu,%zu,%s,%llu,%llu,%llu,%llu,%.0f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
                op.label.c_str(), nn::to_string(op.op_class).c_str(), op.m, op.k, op.n,
                op.repeats, op.static_weights ? "static" : "dynamic",
                static_cast<unsigned long long>(op.macs()),
                static_cast<unsigned long long>(ev.modulation_events),
                static_cast<unsigned long long>(ev.adc_events),
                static_cast<unsigned long long>(ev.cycles), moved_bits,
                dac.energy.modulation.joules() * 1e9, pdac.energy.modulation.joules() * 1e9,
                dac.energy.adc.joules() * 1e9, dac.energy.static_power.joules() * 1e9,
                dac.energy.movement.joules() * 1e9);
  }
  return 0;
}
