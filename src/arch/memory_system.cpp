#include "arch/memory_system.hpp"

#include <algorithm>

#include "arch/energy_model.hpp"
#include "common/require.hpp"

namespace pdac::arch {

TrafficSummary summarize_traffic(const nn::WorkloadTrace& trace, int bits) {
  PDAC_REQUIRE(bits >= 1, "summarize_traffic: bits must be positive");
  TrafficSummary t;
  for (const auto& g : trace.gemms) {
    const std::uint64_t b = static_cast<std::uint64_t>(bits);
    t.hbm_bytes += (g.weight_elements() + g.total_extra_movement_elements()) * b / 8ull;
    if (g.static_weights) t.sram_bytes += g.activation_elements() * b / 8ull;
  }
  return t;
}

units::Time RooflineResult::runtime() const {
  return units::seconds(std::max({compute_time.seconds(), hbm_time.seconds(),
                                  sram_time.seconds()}));
}

bool RooflineResult::memory_bound() const {
  return runtime().seconds() > compute_time.seconds() * (1.0 + 1e-12);
}

double RooflineResult::compute_utilization() const {
  const double rt = runtime().seconds();
  return rt > 0.0 ? compute_time.seconds() / rt : 1.0;
}

RooflineResult roofline_runtime(const nn::WorkloadTrace& trace, const LtConfig& cfg,
                                const MemorySystemConfig& mem, int bits) {
  PDAC_REQUIRE(mem.hbm_bandwidth_gb_s > 0.0 && mem.sram_bandwidth_gb_s > 0.0,
               "roofline_runtime: bandwidths must be positive");
  // Compute time from the counted cycles, as evaluate_energy's runtime:
  // each op's array cycles spread over every array.
  std::uint64_t wall_cycles = 0;
  for (const auto& op : trace.gemms) {
    wall_cycles += analytic_events(op, cfg).cycles / cfg.arrays();
  }
  const TrafficSummary traffic = summarize_traffic(trace, bits);

  RooflineResult r;
  r.compute_time = units::seconds(static_cast<double>(wall_cycles) / cfg.clock.hertz());
  r.hbm_time =
      units::seconds(static_cast<double>(traffic.hbm_bytes) / (mem.hbm_bandwidth_gb_s * 1e9));
  r.sram_time = units::seconds(static_cast<double>(traffic.sram_bytes) /
                               (mem.sram_bandwidth_gb_s * 1e9));
  return r;
}

StalledEnergy stalled_energy(const nn::WorkloadTrace& trace, const LtConfig& cfg,
                             const PowerParams& params, const MemorySystemConfig& mem,
                             int bits) {
  const EnergyComparison cmp = compare_energy(trace, cfg, params, bits);
  const RooflineResult roof = roofline_runtime(trace, cfg, mem, bits);
  const double stall_seconds =
      std::max(0.0, roof.runtime().seconds() - roof.compute_time.seconds());
  // Static power burned during stalls is identical in both variants: the
  // laser, thermal tuning, and receive chain stay on while waiting.
  const units::Energy stall =
      units::joules(static_power(params, bits).watts() * stall_seconds);
  return StalledEnergy{cmp.baseline.total().total() + stall,
                       cmp.pdac.total().total() + stall};
}

}  // namespace pdac::arch
