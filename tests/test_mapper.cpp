// Tests for the dependency-aware trace scheduler.
#include <gtest/gtest.h>

#include "arch/energy_model.hpp"
#include "arch/mapper.hpp"
#include "common/require.hpp"
#include "nn/decode_trace.hpp"
#include "nn/model_config.hpp"

namespace {

using namespace pdac;
using namespace pdac::arch;

class MapperTest : public ::testing::Test {
 protected:
  LtConfig cfg = lt_base();
  nn::WorkloadTrace bert = nn::trace_forward(nn::bert_base(128));
};

TEST_F(MapperTest, StageClassification) {
  for (const auto& op : bert.gemms) {
    const Stage s = stage_of(op);
    if (op.label.find("Q-proj") != std::string::npos) {
      EXPECT_EQ(s, Stage::kQkvProjection);
    } else if (op.label.find("QK^T") != std::string::npos) {
      EXPECT_EQ(s, Stage::kScores);
    } else if (op.label.find("FFN-down") != std::string::npos) {
      EXPECT_EQ(s, Stage::kFfnDown);
    }
  }
}

TEST_F(MapperTest, EveryOpScheduledOnce) {
  const Schedule s = schedule_trace(bert, cfg);
  EXPECT_EQ(s.ops.size(), bert.gemms.size());
}

TEST_F(MapperTest, QkvProjectionsRunConcurrently) {
  const Schedule s = schedule_trace(bert, cfg);
  // First three ops are layer-0 Q/K/V projections: same start cycle.
  ASSERT_GE(s.ops.size(), 3u);
  EXPECT_EQ(s.ops[0].start_cycle, s.ops[1].start_cycle);
  EXPECT_EQ(s.ops[1].start_cycle, s.ops[2].start_cycle);
  EXPECT_EQ(s.ops[0].arrays_assigned, cfg.arrays() / 3);
}

TEST_F(MapperTest, StagesRespectDependencies) {
  const Schedule s = schedule_trace(bert, cfg);
  // Within layer 0: scores start after projections end; context after
  // scores; output projection after context.
  const auto find = [&s](const char* label) {
    for (const auto& op : s.ops) {
      if (op.label == label) return op;
    }
    ADD_FAILURE() << "op not found: " << label;
    return ScheduledOp{};
  };
  const auto q = find("L0.Q-proj");
  const auto scores = find("L0.QK^T");
  const auto av = find("L0.AV");
  const auto oproj = find("L0.O-proj");
  EXPECT_GE(scores.start_cycle, q.end_cycle);
  EXPECT_GE(av.start_cycle, scores.end_cycle);
  EXPECT_GE(oproj.start_cycle, av.end_cycle);
}

TEST_F(MapperTest, LayersAreSequential) {
  const Schedule s = schedule_trace(bert, cfg);
  std::uint64_t l0_end = 0, l1_start = UINT64_MAX;
  for (const auto& op : s.ops) {
    if (op.label.rfind("L0.", 0) == 0) l0_end = std::max(l0_end, op.end_cycle);
    if (op.label.rfind("L1.", 0) == 0) l1_start = std::min(l1_start, op.start_cycle);
  }
  EXPECT_GE(l1_start, l0_end);
}

TEST_F(MapperTest, MakespanCoversAllOps) {
  const Schedule s = schedule_trace(bert, cfg);
  std::uint64_t max_end = 0;
  for (const auto& op : s.ops) max_end = std::max(max_end, op.end_cycle);
  EXPECT_EQ(s.makespan_cycles, max_end);
}

TEST_F(MapperTest, UtilizationBetweenZeroAndOne) {
  const Schedule s = schedule_trace(bert, cfg);
  EXPECT_GT(s.utilization(), 0.0);
  EXPECT_LE(s.utilization(), 1.0);
}

TEST_F(MapperTest, MakespanAtLeastIdeal) {
  const Schedule s = schedule_trace(bert, cfg);
  EXPECT_GE(s.makespan_cycles, s.ideal_cycles());
  EXPECT_GE(s.slowdown(), 1.0);
}

TEST_F(MapperTest, BusyCyclesMatchEventCounts) {
  const Schedule s = schedule_trace(bert, cfg);
  std::uint64_t expect = 0;
  for (const auto& op : bert.gemms) expect += analytic_events(op, cfg).cycles;
  EXPECT_EQ(s.busy_array_cycles, expect);
}

TEST_F(MapperTest, RuntimeMatchesClock) {
  const Schedule s = schedule_trace(bert, cfg);
  EXPECT_NEAR(s.runtime(units::gigahertz(5.0)).seconds(),
              static_cast<double>(s.makespan_cycles) / 5e9, 1e-15);
}

TEST_F(MapperTest, DecodeWastesDdotsNotArrays) {
  const auto decode = nn::trace_decode_step(nn::bert_base(128), 512);
  const Schedule s = schedule_trace(decode, cfg);
  EXPECT_EQ(s.ops.size(), decode.gemms.size());
  // Decode tiles occupy whole arrays but only one DDot row (m = 1), so
  // array-level utilization stays high while DDot-level collapses.
  const Schedule prefill = schedule_trace(bert, cfg);
  EXPECT_GT(prefill.ddot_utilization(), 0.9);
  EXPECT_LT(s.ddot_utilization(), 0.2);
  EXPECT_LT(s.ddot_utilization(), prefill.ddot_utilization());
}

TEST_F(MapperTest, DdotUtilizationNeverExceedsArrayUtilization) {
  for (const auto* trace : {&bert}) {
    const Schedule s = schedule_trace(*trace, cfg);
    EXPECT_LE(s.ddot_utilization(), s.utilization() + 1e-12);
  }
}

TEST_F(MapperTest, StageNames) {
  EXPECT_EQ(to_string(Stage::kScores), "scores");
  EXPECT_EQ(to_string(Stage::kFfnUp), "ffn-up");
}

TEST_F(MapperTest, FullCapacityDegradedScheduleMatchesBaseline) {
  const Schedule base = schedule_trace(bert, cfg);
  DegradedCapacity cap;
  cap.healthy_arrays = cfg.arrays();
  cap.wavelength_availability = 1.0;
  const Schedule same = schedule_trace(bert, cfg, cap);
  EXPECT_EQ(same.makespan_cycles, base.makespan_cycles);
  EXPECT_EQ(same.busy_array_cycles, base.busy_array_cycles);
  EXPECT_EQ(same.remapped_tiles, 0u);
}

TEST_F(MapperTest, FencedArraysStretchMakespanAndRemapTiles) {
  const Schedule base = schedule_trace(bert, cfg);
  DegradedCapacity cap;
  cap.healthy_arrays = cfg.arrays() / 2;
  cap.wavelength_availability = 1.0;
  const Schedule degraded = schedule_trace(bert, cfg, cap);
  EXPECT_GT(degraded.makespan_cycles, base.makespan_cycles);
  EXPECT_GT(degraded.remapped_tiles, 0u);
  EXPECT_EQ(degraded.arrays, cfg.arrays() / 2);
}

TEST_F(MapperTest, DeadWavelengthsStretchEveryReduction) {
  const Schedule base = schedule_trace(bert, cfg);
  DegradedCapacity cap;
  cap.healthy_arrays = cfg.arrays();
  cap.wavelength_availability = 0.5;
  const Schedule degraded = schedule_trace(bert, cfg, cap);
  // Halved chunk width ≈ doubled occupancy; per-op ceil rounding keeps
  // the global ratio only approximately 2×.
  const double ratio = static_cast<double>(degraded.makespan_cycles) /
                       static_cast<double>(base.makespan_cycles);
  EXPECT_NEAR(ratio, 2.0, 0.05);
  EXPECT_EQ(degraded.remapped_tiles, 0u);  // no whole array was lost
}

TEST_F(MapperTest, DegradedCapacityIsValidated) {
  DegradedCapacity cap;
  cap.healthy_arrays = 0;
  EXPECT_THROW(schedule_trace(bert, cfg, cap), PreconditionError);
  cap.healthy_arrays = cfg.arrays() + 1;
  EXPECT_THROW(schedule_trace(bert, cfg, cap), PreconditionError);
  cap.healthy_arrays = 1;
  cap.wavelength_availability = 0.0;
  EXPECT_THROW(schedule_trace(bert, cfg, cap), PreconditionError);
  cap.wavelength_availability = 1.5;
  EXPECT_THROW(schedule_trace(bert, cfg, cap), PreconditionError);
}

}  // namespace
