// energy_model.hpp — workload energy accounting (paper Figs. 9–10).
//
// Maps a transformer op trace onto the LT-B organization and charges
// every energy-bearing event:
//
//   modulation — one conversion per operand value entering a modulator.
//     Static-weight GEMMs benefit from LT's array broadcast: an H×W DDot
//     tile consumes (H+W)·k conversions for H·W·k MACs.  Dynamic–dynamic
//     products (Q·Kᵀ, A·V) are consumed in systolic order as they are
//     produced and cannot be broadcast-shared, costing 2·H·W·k
//     conversions per tile — this is why attention, whose dynamic ops
//     carry no weight traffic but extra conversions, gains *more* from
//     the P-DAC than the FFN does (paper §IV-B).
//     Priced at DAC+controller (baseline) or P-DAC (proposed) rates.
//   adc — one sample per DDot group per analog-accumulation window.
//   static — laser + thermal tuning + receivers/digital, charged over
//     the op's occupancy time on the array.
//   movement — SRAM traffic: weight fetch plus activation staging for
//     static GEMMs; dynamic products stay in PTC-local buffers.
//   vector — the digital unit running softmax/LN/GELU ("other" class).
//
// The P-DAC affects only the modulation term, exactly as the paper
// states ("P-DAC does not affect the energy consumption associated with
// data movement").
#pragma once

#include <cstdint>

#include "arch/component_power.hpp"
#include "arch/lt_config.hpp"
#include "arch/power_params.hpp"
#include "common/units.hpp"
#include "nn/workload_trace.hpp"
#include "ptc/event_counter.hpp"

namespace pdac::arch {

struct EnergyBreakdown {
  units::Energy modulation;
  units::Energy adc;
  units::Energy static_power;
  units::Energy movement;
  units::Energy vector_unit;

  [[nodiscard]] units::Energy total() const {
    return modulation + adc + static_power + movement + vector_unit;
  }
  EnergyBreakdown& operator+=(const EnergyBreakdown& o) {
    modulation += o.modulation;
    adc += o.adc;
    static_power += o.static_power;
    movement += o.movement;
    vector_unit += o.vector_unit;
    return *this;
  }
};

struct WorkloadEnergy {
  SystemVariant variant{SystemVariant::kDacBased};
  int bits{8};
  EnergyBreakdown attention;
  EnergyBreakdown ffn;
  EnergyBreakdown conv;
  EnergyBreakdown other;
  std::uint64_t wall_cycles{};
  units::Time runtime;

  [[nodiscard]] EnergyBreakdown total() const {
    EnergyBreakdown t = attention;
    t += ffn;
    t += conv;
    t += other;
    return t;
  }
  [[nodiscard]] const EnergyBreakdown& of(nn::OpClass c) const;
};

/// One GEMM op's events on `cfg` under the analytic rule: the ptc
/// tile-step count over the op's tiling (ptc::product_events) with the
/// op's residency and cfg.ddots_per_adc chunks per ADC sample, times
/// op.repeats.  The functional executors count the same tiles with B
/// broadcast and one sample per output.
ptc::EventCounter analytic_events(const nn::GemmOp& op, const LtConfig& cfg);

/// One GEMM op priced under `variant`: its analytic events, and its
/// modulation, ADC, static and movement energy (vector_unit stays 0).
struct OpEnergy {
  ptc::EventCounter events;
  EnergyBreakdown energy;
};

/// The per-op pricing evaluate_energy folds by op class: modulations at
/// the variant's conversion energy, ADC samples at the readout energy,
/// static power over the op's cycles spread across all arrays, and
/// GemmOp::moved_elements at the SRAM energy per bit.
OpEnergy op_energy(const nn::GemmOp& op, const LtConfig& cfg, const PowerParams& params,
                   int bits, SystemVariant variant);

/// Price one forward pass of `trace` on `cfg` under `variant`.
WorkloadEnergy evaluate_energy(const nn::WorkloadTrace& trace, const LtConfig& cfg,
                               const PowerParams& params, int bits, SystemVariant variant);

/// Baseline-vs-P-DAC comparison with the savings the figures report.
struct EnergyComparison {
  WorkloadEnergy baseline;
  WorkloadEnergy pdac;

  /// 1 − E_pdac/E_baseline over the whole inference.
  [[nodiscard]] double total_saving() const;
  /// Savings within one op class (the per-category numbers of §IV-B1).
  [[nodiscard]] double saving(nn::OpClass c) const;
};

EnergyComparison compare_energy(const nn::WorkloadTrace& trace, const LtConfig& cfg,
                                const PowerParams& params, int bits);

/// Overhead of the fault detection/recovery loop (faults/self_test.hpp
/// plus the degraded mapper): nothing is free — probing a calibration
/// code costs a modulation and an ADC sample, a re-trim runs its
/// least-squares fit on the digital vector unit, and every tile remapped
/// off a fenced array re-stages its operands from SRAM.
struct RecalibrationCost {
  std::uint64_t probe_events{};    ///< SelfTestReport::probe_events
  std::uint64_t retrims{};         ///< SelfTestReport::retrims
  std::uint64_t remapped_tiles{};  ///< Schedule::remapped_tiles
};

units::Energy recalibration_energy(const RecalibrationCost& cost, const LtConfig& cfg,
                                   const PowerParams& params, int bits,
                                   SystemVariant variant);

/// Price a raw functional-simulator event counter (ptc::EventCounter)
/// under the same per-event rates evaluate_energy uses: modulations at
/// the variant's conversion energy, ADC samples at the readout energy,
/// and static power over the counter's occupancy cycles.  This is how
/// the ABFT guard's overhead stays honest — the checksum-lane charge and
/// every recovery re-run (faults::HealthSnapshot's checksum_events /
/// retry_events) are priced with exactly the data path's rates.
units::Energy event_energy(const ptc::EventCounter& events, const LtConfig& cfg,
                           const PowerParams& params, int bits, SystemVariant variant);

}  // namespace pdac::arch
