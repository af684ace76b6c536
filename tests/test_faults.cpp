// Unit tests for the fault-injection + graceful-degradation subsystem:
// seeded schedules, the injector, the self-test/recovery loop, and GEMM
// through a degraded bank on the unguarded lane executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/stats.hpp"
#include "faults/fault_injector.hpp"
#include "faults/guarded_backend.hpp"
#include "faults/self_test.hpp"

namespace {

using namespace pdac;

faults::LaneBankConfig small_bank_config(std::uint64_t seed = 5) {
  faults::LaneBankConfig cfg;
  cfg.pdac.bits = 8;
  cfg.wavelengths = 4;
  cfg.variation.tia_gain_sigma = 0.01;
  cfg.variation.bias_sigma = 0.002;
  cfg.variation.vpi_drift_sigma = 0.005;
  cfg.variation.seed = seed;
  return cfg;
}

faults::FaultScheduleConfig quiet_schedule(std::size_t lanes) {
  faults::FaultScheduleConfig cfg;
  cfg.lanes = lanes;
  cfg.bits = 8;
  cfg.horizon_steps = 64;
  return cfg;  // all rates zero: a healthy timeline
}

/// A single-event schedule for targeted fault tests.
faults::FaultSchedule one_event(std::size_t lanes, faults::FaultEvent ev) {
  faults::FaultSchedule sched;
  sched.cfg.lanes = lanes;
  sched.cfg.bits = 8;
  sched.cfg.horizon_steps = 8;
  sched.events.push_back(ev);
  return sched;
}

TEST(FaultSchedule, ReplayIsDeterministic) {
  faults::FaultScheduleConfig cfg;
  cfg.lanes = 32;
  cfg.bits = 8;
  cfg.horizon_steps = 64;
  cfg.hard_fault_rate = 0.3;
  cfg.drift_fault_rate = 0.5;
  cfg.seed = 1234;
  const auto a = faults::generate_fault_schedule(cfg);
  const auto b = faults::generate_fault_schedule(cfg);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_FALSE(a.events.empty());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(faults::to_string(a.events[i]), faults::to_string(b.events[i]));
  }
  // Events are sorted by time and a different seed reshuffles them.
  for (std::size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_GE(a.events[i].step, a.events[i - 1].step);
  }
  cfg.seed = 4321;
  const auto c = faults::generate_fault_schedule(cfg);
  bool any_difference = c.events.size() != a.events.size();
  for (std::size_t i = 0; !any_difference && i < a.events.size(); ++i) {
    any_difference = faults::to_string(a.events[i]) != faults::to_string(c.events[i]);
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultSchedule, RejectsOutOfRangeRates) {
  faults::FaultScheduleConfig cfg;
  cfg.hard_fault_rate = 1.5;
  EXPECT_THROW(faults::generate_fault_schedule(cfg), PreconditionError);
}

TEST(FaultInjector, HealthyTimelineIsBitIdentical) {
  // The property the non-invasive hook design guarantees: a device under
  // an all-quiet injector computes the SAME bits as one never touched.
  faults::LaneBank with_injector(small_bank_config());
  faults::LaneBank untouched(small_bank_config());
  faults::FaultInjector injector(
      with_injector, faults::generate_fault_schedule(quiet_schedule(8)));
  // A quiet timeline writes no lane state, so the encode-state epoch
  // stays put: the guarded storm loop skips re-encodes on exactly this.
  const std::uint64_t epoch = with_injector.epoch();
  injector.advance_to(64);
  EXPECT_EQ(with_injector.epoch(), epoch);
  EXPECT_EQ(injector.events_applied(), 0u);
  EXPECT_DOUBLE_EQ(injector.laser_power_scale(), 1.0);
  for (std::size_t lane = 0; lane < with_injector.lanes(); ++lane) {
    for (std::int32_t c = -127; c <= 127; ++c) {
      // Exact equality, not EXPECT_NEAR: the healthy path must be
      // bit-identical, there is no forked code path to drift apart.
      EXPECT_EQ(with_injector.lane(lane).model.encode_code(c),
                untouched.lane(lane).model.encode_code(c));
    }
  }
}

TEST(FaultInjector, EpochMovesOnlyOnTheStepThatAppliesAnEvent) {
  faults::LaneBank bank(small_bank_config());
  faults::FaultEvent ev;
  ev.step = 5;
  ev.lane = 6;
  ev.kind = faults::FaultKind::kStuckMrr;
  ev.magnitude = 0.4;
  faults::FaultInjector injector(bank, one_event(bank.lanes(), ev));
  const std::uint64_t before = bank.epoch();
  injector.advance_to(4);  // every step before the event is quiet
  EXPECT_EQ(bank.epoch(), before);
  injector.advance_to(5);  // the step that applies it
  EXPECT_EQ(injector.events_applied(), 1u);
  const std::uint64_t after = bank.epoch();
  EXPECT_GT(after, before);
  injector.advance_to(8);  // quiet again
  EXPECT_EQ(bank.epoch(), after);
}

TEST(FaultInjector, SeededReplayReproducesLaneStates) {
  faults::FaultScheduleConfig cfg;
  cfg.lanes = 8;
  cfg.bits = 8;
  cfg.horizon_steps = 32;
  cfg.hard_fault_rate = 0.25;
  cfg.drift_fault_rate = 0.5;
  cfg.bias_walk_sigma_per_step = 0.003;
  cfg.laser_droop_per_step = 0.001;
  cfg.seed = 99;

  faults::LaneBank bank_a(small_bank_config());
  faults::LaneBank bank_b(small_bank_config());
  faults::FaultInjector inj_a(bank_a, faults::generate_fault_schedule(cfg));
  faults::FaultInjector inj_b(bank_b, faults::generate_fault_schedule(cfg));
  // Different advance granularity, same end step: replay must converge.
  inj_a.advance_to(32);
  inj_b.advance_to(7);
  inj_b.advance_to(20);
  inj_b.advance_to(32);
  EXPECT_EQ(inj_a.events_applied(), inj_b.events_applied());
  EXPECT_DOUBLE_EQ(inj_a.laser_power_scale(), inj_b.laser_power_scale());
  for (std::size_t lane = 0; lane < bank_a.lanes(); ++lane) {
    for (std::int32_t c = -127; c <= 127; c += 3) {
      EXPECT_EQ(bank_a.lane(lane).model.encode_code(c),
                bank_b.lane(lane).model.encode_code(c));
    }
  }
}

TEST(FaultInjector, ClockCannotRewind) {
  faults::LaneBank bank(small_bank_config());
  faults::FaultInjector injector(bank, faults::generate_fault_schedule(quiet_schedule(8)));
  injector.advance_to(10);
  EXPECT_THROW(injector.advance_to(5), PreconditionError);
}

TEST(SelfTest, StuckMrrIsDetectedAndFenced) {
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::FaultEvent ev;
  ev.step = 1;
  ev.lane = 3;
  ev.kind = faults::FaultKind::kStuckMrr;
  ev.magnitude = 0.4;
  faults::FaultInjector injector(bank, one_event(bank.lanes(), ev));
  injector.advance_to(8);

  const auto report = faults::run_self_test(bank);
  EXPECT_EQ(report.dead, 1u);
  EXPECT_EQ(report.lanes[3].verdict, faults::LaneVerdict::kDead);
  EXPECT_TRUE(bank.lane(3).fenced);
  EXPECT_GT(report.probe_events, 0u);
  // Rail 0 spans lanes [0, W), so lane 3 is the x rail of channel 3.
  const auto survivors = bank.surviving_channels();
  EXPECT_EQ(std::count(survivors.begin(), survivors.end(), std::size_t{3}), 0);
  EXPECT_EQ(bank.usable_channels(), bank.wavelengths() - 1);
}

TEST(SelfTest, DeadPdBitIsUnrecoverable) {
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::FaultEvent ev;
  ev.step = 1;
  ev.lane = 5;
  ev.kind = faults::FaultKind::kDeadPd;
  ev.bit = 7;  // MSB: every negative code loses its largest weight
  faults::FaultInjector injector(bank, one_event(bank.lanes(), ev));
  injector.advance_to(8);

  const auto report = faults::run_self_test(bank);
  EXPECT_EQ(report.lanes[5].verdict, faults::LaneVerdict::kDead);
  EXPECT_TRUE(report.lanes[5].retrimmed);  // recovery was attempted, failed
  EXPECT_TRUE(bank.lane(5).fenced);
}

TEST(SelfTest, BiasDriftIsRecoveredByRetrim) {
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::FaultEvent ev;
  ev.step = 1;
  ev.lane = 2;
  ev.kind = faults::FaultKind::kBiasStep;
  ev.segment = 1;
  ev.magnitude = 0.1;  // radians — far outside the 8.5 % budget
  faults::FaultInjector injector(bank, one_event(bank.lanes(), ev));
  injector.advance_to(8);

  const auto report = faults::run_self_test(bank);
  EXPECT_EQ(report.lanes[2].verdict, faults::LaneVerdict::kRecovered);
  EXPECT_FALSE(bank.lane(2).fenced);
  EXPECT_GT(report.lanes[2].screen_error_before, 0.085);
  EXPECT_LE(report.lanes[2].screen_error_after, 0.085);
  EXPECT_EQ(report.retrims, 1u);
  EXPECT_EQ(bank.usable_channels(), bank.wavelengths());
}

TEST(SelfTest, DetectOnlyFencesInsteadOfRecovering) {
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::FaultEvent ev;
  ev.step = 1;
  ev.lane = 2;
  ev.kind = faults::FaultKind::kBiasStep;
  ev.segment = 1;
  ev.magnitude = 0.1;
  faults::FaultInjector injector(bank, one_event(bank.lanes(), ev));
  injector.advance_to(8);

  faults::SelfTestConfig cfg;
  cfg.attempt_recovery = false;
  const auto report = faults::run_self_test(bank, cfg);
  EXPECT_EQ(report.lanes[2].verdict, faults::LaneVerdict::kDead);
  EXPECT_TRUE(bank.lane(2).fenced);
  EXPECT_EQ(report.retrims, 0u);
}

TEST(UnguardedBackend, HealthyBankMatchesReferenceClosely) {
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackend backend(bank, {.guard = {.enabled = false}});
  Rng rng(3);
  const Matrix a = Matrix::random_gaussian(5, 9, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(9, 4, rng, 0.0, 1.0);
  const Matrix exact = matmul_reference(a, b);
  const Matrix got = backend.matmul(a, b);
  const auto err = stats::compare(got.data(), exact.data());
  EXPECT_GT(err.cosine, 0.995);
  EXPECT_GT(backend.events().cycles, 0u);
}

TEST(UnguardedBackend, FencedChannelsStretchCycles) {
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackend backend(bank, {.guard = {.enabled = false}});
  Rng rng(3);
  const Matrix a = Matrix::random_gaussian(4, 16, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(16, 4, rng, 0.0, 1.0);
  (void)backend.matmul(a, b);
  const auto healthy_cycles = backend.events().cycles;

  bank.lane(0, 1).fenced = true;  // channel 1 loses its x rail
  bank.lane(1, 2).fenced = true;  // channel 2 loses its y rail
  backend.reset_events();
  const Matrix degraded = backend.matmul(a, b);
  EXPECT_GT(backend.events().cycles, healthy_cycles);
  // Still numerically useful — masked, not poisoned.
  const auto err = stats::compare(degraded.data(), matmul_reference(a, b).data());
  EXPECT_GT(err.cosine, 0.99);
}

TEST(UnguardedBackend, FullyFencedBankIsAnOutage) {
  faults::LaneBank bank(small_bank_config());
  for (std::size_t i = 0; i < bank.lanes(); ++i) bank.lane(i).fenced = true;
  faults::GuardedBackend backend(bank, {.guard = {.enabled = false}});
  Rng rng(3);
  const Matrix a = Matrix::random_gaussian(2, 4, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(4, 2, rng, 0.0, 1.0);
  const Matrix out = backend.matmul(a, b);
  for (double v : out.data()) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(backend.events().cycles, 0u);
  EXPECT_EQ(backend.monitor().snapshot().products, 0u);
}

TEST(LaneBank, ChannelMaskRequiresBothRails) {
  faults::LaneBank bank(small_bank_config());
  EXPECT_EQ(bank.lanes(), 2 * bank.wavelengths());
  bank.lane(1, 0).fenced = true;  // y rail of channel 0
  // Channel 0 drops out; the rest keep their packing order.
  const auto survivors = bank.surviving_channels();
  ASSERT_EQ(survivors.size(), bank.wavelengths() - 1);
  for (std::size_t i = 0; i < survivors.size(); ++i) EXPECT_EQ(survivors[i], i + 1);
  EXPECT_EQ(bank.fenced_lanes(), 1u);
}

TEST(FaultInjector, LaserDroopScalesEveryLane) {
  faults::FaultScheduleConfig cfg = quiet_schedule(8);
  cfg.laser_droop_per_step = 0.01;
  faults::LaneBank bank(small_bank_config());
  const double before = bank.lane(0).model.encode_code(100);
  faults::FaultInjector injector(bank, faults::generate_fault_schedule(cfg));
  injector.advance_to(10);
  const double expected_scale = std::pow(0.99, 10);
  EXPECT_NEAR(injector.laser_power_scale(), expected_scale, 1e-12);
  EXPECT_NEAR(bank.lane(0).model.encode_code(100), before * expected_scale, 1e-12);
}

}  // namespace
