#include "arch/interconnect.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace pdac::arch {

units::Time LinkMetrics::transfer_time(std::uint64_t bits) const {
  PDAC_REQUIRE(bandwidth_gbps > 0.0, "LinkMetrics: bandwidth must be positive");
  const double stream = static_cast<double>(bits) / (bandwidth_gbps * 1e9);
  return units::seconds(stream + latency.seconds());
}

LinkMetrics evaluate_link(const InterconnectConfig& cfg) {
  PDAC_REQUIRE(cfg.distance_mm >= 0.0, "evaluate_link: distance must be non-negative");
  LinkMetrics m;
  if (cfg.kind == LinkKind::kElectrical) {
    PDAC_REQUIRE(cfg.wires >= 1, "evaluate_link: at least one wire");
    m.energy_per_bit =
        units::picojoules(cfg.electrical_pj_per_bit_mm * cfg.distance_mm);
    m.bandwidth_gbps = cfg.electrical_gbps_per_wire * static_cast<double>(cfg.wires);
    m.latency = units::seconds(cfg.electrical_latency_ps_per_mm * cfg.distance_mm * 1e-12);
  } else {
    PDAC_REQUIRE(cfg.lambdas >= 1, "evaluate_link: at least one wavelength");
    // Conversion energy is distance-independent; transport is time of
    // flight in the waveguide.
    m.energy_per_bit =
        units::picojoules(cfg.eo_pj_per_bit + cfg.oe_pj_per_bit + cfg.laser_pj_per_bit);
    m.bandwidth_gbps = cfg.gbps_per_lambda * static_cast<double>(cfg.lambdas);
    constexpr double kSpeedOfLightMmPerS = 2.99792458e11;
    m.latency = units::seconds(cfg.distance_mm * cfg.group_index / kSpeedOfLightMmPerS);
  }
  return m;
}

double optical_crossover_mm(const InterconnectConfig& base) {
  // Electrical pJ/bit = k·d; optical pJ/bit is flat: crossover at
  // d = (eo + oe + laser) / k.
  PDAC_REQUIRE(base.electrical_pj_per_bit_mm > 0.0,
               "optical_crossover_mm: electrical energy slope must be positive");
  return (base.eo_pj_per_bit + base.oe_pj_per_bit + base.laser_pj_per_bit) /
         base.electrical_pj_per_bit_mm;
}

std::uint64_t distribution_bits(const nn::WorkloadTrace& trace, int bits) {
  PDAC_REQUIRE(bits >= 1, "distribution_bits: bits must be positive");
  std::uint64_t elements = 0;
  for (const auto& g : trace.gemms) elements += g.moved_elements();
  return elements * static_cast<std::uint64_t>(bits);
}

std::string to_string(LinkKind k) {
  return k == LinkKind::kElectrical ? "electrical" : "optical";
}

}  // namespace pdac::arch
