// Parameterized property tests over the architecture design space:
// invariants that must hold for ANY accelerator organization, not just
// the calibrated LT-B point.
#include <gtest/gtest.h>

#include <tuple>

#include "arch/component_power.hpp"
#include "arch/energy_model.hpp"
#include "arch/mapper.hpp"
#include "nn/model_config.hpp"
#include "nn/workload_trace.hpp"

namespace {

using namespace pdac;
using namespace pdac::arch;

// (clusters, cores, rows, cols, wavelengths)
using Org = std::tuple<std::size_t, std::size_t, std::size_t, std::size_t, std::size_t>;

LtConfig make_cfg(const Org& org) {
  LtConfig cfg;
  cfg.clusters = std::get<0>(org);
  cfg.cores_per_cluster = std::get<1>(org);
  cfg.array_rows = std::get<2>(org);
  cfg.array_cols = std::get<3>(org);
  cfg.wavelengths = std::get<4>(org);
  return cfg;
}

class OrgProperties : public ::testing::TestWithParam<Org> {};

TEST_P(OrgProperties, UnitCountFormulas) {
  const LtConfig cfg = make_cfg(GetParam());
  EXPECT_EQ(cfg.arrays(), cfg.clusters * cfg.cores_per_cluster);
  EXPECT_EQ(cfg.ddots(), cfg.arrays() * cfg.array_rows * cfg.array_cols);
  EXPECT_EQ(cfg.modulator_channels(),
            cfg.arrays() * (cfg.array_rows + cfg.array_cols) * cfg.wavelengths);
  EXPECT_EQ(cfg.macs_per_cycle(), cfg.ddots() * cfg.wavelengths);
}

TEST_P(OrgProperties, PdacSystemAlwaysCheaper) {
  const LtConfig cfg = make_cfg(GetParam());
  const PowerParams params = lt_power_params();
  for (int bits : {4, 6, 8, 10}) {
    const auto base = compute_power_breakdown(cfg, params, bits, SystemVariant::kDacBased);
    const auto prop = compute_power_breakdown(cfg, params, bits, SystemVariant::kPdacBased);
    EXPECT_LT(prop.total().watts(), base.total().watts())
        << "bits " << bits;
    for (const auto& part : base.parts) {
      EXPECT_GT(part.power.watts(), 0.0) << to_string(part.component);
    }
  }
}

TEST_P(OrgProperties, EventCountsConserveMacs) {
  const LtConfig cfg = make_cfg(GetParam());
  // Any GEMM's DDot ops × wavelengths ≥ its MACs (equality when k is a
  // multiple of the wavelength count).
  const nn::GemmOp ops[] = {
      {"a", nn::OpClass::kAttention, 128, 768, 768, true, 1, 0},
      {"b", nn::OpClass::kAttention, 128, 64, 128, false, 12, 0},
      {"c", nn::OpClass::kFfn, 7, 13, 29, true, 3, 0},
  };
  for (const auto& op : ops) {
    const ptc::EventCounter ev = analytic_events(op, cfg);
    EXPECT_GE(ev.ddot_ops * cfg.wavelengths, op.macs()) << op.label;
    EXPECT_EQ(ev.macs, op.macs()) << op.label;
    EXPECT_GT(ev.modulation_events, 0u);
    EXPECT_GT(ev.cycles, 0u);
  }
}

TEST_P(OrgProperties, EnergySavingsInValidRange) {
  const LtConfig cfg = make_cfg(GetParam());
  const PowerParams params = lt_power_params();
  const auto trace = nn::trace_forward(nn::tiny_transformer(16, 64, 4, 2));
  const auto cmp = compare_energy(trace, cfg, params, 8);
  EXPECT_GT(cmp.total_saving(), 0.0);
  EXPECT_LT(cmp.total_saving(), 1.0);
  EXPECT_GT(cmp.pdac.total().total().joules(), 0.0);
}

TEST_P(OrgProperties, ScheduleInvariants) {
  const LtConfig cfg = make_cfg(GetParam());
  const auto trace = nn::trace_forward(nn::tiny_transformer(16, 64, 4, 1));
  const Schedule s = schedule_trace(trace, cfg);
  EXPECT_EQ(s.ops.size(), trace.gemms.size());
  EXPECT_GE(s.makespan_cycles, s.ideal_cycles());
  EXPECT_LE(s.ddot_utilization(), s.utilization() + 1e-12);
  for (const auto& op : s.ops) {
    EXPECT_LE(op.start_cycle, op.end_cycle);
    EXPECT_LE(op.end_cycle, s.makespan_cycles);
    EXPECT_GE(op.arrays_assigned, 1u);
    EXPECT_LE(op.arrays_assigned, cfg.arrays());
  }
}

TEST_P(OrgProperties, MoreWavelengthsNeverSlower) {
  LtConfig cfg = make_cfg(GetParam());
  const auto trace = nn::trace_forward(nn::tiny_transformer(16, 64, 4, 1));
  const auto base_cycles = schedule_trace(trace, cfg).makespan_cycles;
  cfg.wavelengths *= 2;
  const auto wide_cycles = schedule_trace(trace, cfg).makespan_cycles;
  EXPECT_LE(wide_cycles, base_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, OrgProperties,
    ::testing::Values(Org{2, 8, 8, 8, 8},      // LT-B
                      Org{1, 1, 8, 8, 8},      // single core
                      Org{2, 4, 16, 16, 8},    // big arrays
                      Org{4, 8, 4, 4, 16},     // many small cores, wide WDM
                      Org{1, 2, 8, 4, 3},      // asymmetric, odd wavelengths
                      Org{2, 8, 2, 2, 8}));    // tiny arrays

}  // namespace
