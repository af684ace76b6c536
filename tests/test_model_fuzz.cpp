// Randomized property tests: invariants that must hold for arbitrary
// workload shapes, not just the curated model configs.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/energy_model.hpp"
#include "arch/mapper.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "faults/fault_injector.hpp"
#include "faults/guarded_backend.hpp"
#include "faults/self_test.hpp"
#include "ptc/gemm_engine.hpp"

namespace {

using namespace pdac;

nn::GemmOp random_op(Rng& rng, int idx) {
  nn::GemmOp op;
  op.label = "fuzz" + std::to_string(idx);
  op.op_class = rng.integer(0, 1) ? nn::OpClass::kAttention : nn::OpClass::kFfn;
  op.m = static_cast<std::size_t>(rng.integer(1, 300));
  op.k = static_cast<std::size_t>(rng.integer(1, 900));
  op.n = static_cast<std::size_t>(rng.integer(1, 300));
  op.static_weights = rng.integer(0, 1) != 0;
  op.repeats = static_cast<std::size_t>(rng.integer(1, 6));
  op.extra_movement_elements =
      op.static_weights ? 0 : static_cast<std::size_t>(rng.integer(0, 5000));
  return op;
}

TEST(ModelFuzz, OpEventInvariantsHoldForRandomShapes) {
  const arch::LtConfig cfg = arch::lt_base();
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    const nn::GemmOp op = random_op(rng, trial);
    const ptc::EventCounter ev = arch::analytic_events(op, cfg);

    // Enough DDot ops to cover every MAC at the wavelength width.
    EXPECT_GE(ev.ddot_ops * cfg.wavelengths, op.macs()) << op.label;
    // DDot occupancy can never exceed full-array occupancy.
    EXPECT_LE(ev.ddot_ops, ev.cycles * cfg.array_rows * cfg.array_cols) << op.label;
    // At least one conversion per reduction element per tile row/col.
    EXPECT_GE(ev.modulation_events, op.k * op.repeats) << op.label;
    // Dynamic ops convert strictly more than broadcast-shared static ops
    // of the same shape (for multi-row-and-column tiles).
    if (!op.static_weights && op.m > 1 && op.n > 1) {
      nn::GemmOp twin = op;
      twin.static_weights = true;
      EXPECT_GT(ev.modulation_events, arch::analytic_events(twin, cfg).modulation_events)
          << op.label;
    }
    // One ADC window per DDot per k-pass at least.
    EXPECT_GE(ev.adc_events, op.m * op.n * op.repeats / cfg.ddots_per_adc) << op.label;
  }
}

TEST(ModelFuzz, EnergyModelInvariantsOnRandomTraces) {
  const arch::LtConfig cfg = arch::lt_base();
  const arch::PowerParams params = arch::lt_power_params();
  Rng rng(202);
  for (int trial = 0; trial < 25; ++trial) {
    nn::WorkloadTrace trace;
    trace.config.name = "fuzz";
    const int ops = static_cast<int>(rng.integer(1, 12));
    for (int i = 0; i < ops; ++i) trace.gemms.push_back(random_op(rng, i));

    for (int bits : {4, 8}) {
      const auto cmp = arch::compare_energy(trace, cfg, params, bits);
      const double saving = cmp.total_saving();
      EXPECT_GT(saving, 0.0) << "trial " << trial;
      EXPECT_LT(saving, 1.0) << "trial " << trial;
      // Non-modulation terms must match exactly across variants.
      EXPECT_DOUBLE_EQ(cmp.baseline.total().movement.joules(),
                       cmp.pdac.total().movement.joules());
      EXPECT_DOUBLE_EQ(cmp.baseline.total().adc.joules(), cmp.pdac.total().adc.joules());
      // Class totals partition the whole.
      const double whole = cmp.baseline.total().total().joules();
      const double parts = cmp.baseline.attention.total().joules() +
                           cmp.baseline.ffn.total().joules() +
                           cmp.baseline.conv.total().joules() +
                           cmp.baseline.other.total().joules();
      EXPECT_NEAR(parts, whole, 1e-12 * whole);
    }
  }
}

TEST(ModelFuzz, ScheduleInvariantsOnRandomTraces) {
  const arch::LtConfig cfg = arch::lt_base();
  Rng rng(303);
  for (int trial = 0; trial < 25; ++trial) {
    nn::WorkloadTrace trace;
    const int ops = static_cast<int>(rng.integer(1, 10));
    for (int i = 0; i < ops; ++i) trace.gemms.push_back(random_op(rng, i));
    const arch::Schedule s = arch::schedule_trace(trace, cfg);
    EXPECT_EQ(s.ops.size(), trace.gemms.size());
    EXPECT_GE(s.makespan_cycles, s.ideal_cycles());
    EXPECT_LE(s.utilization(), 1.0 + 1e-12);
    EXPECT_LE(s.ddot_utilization(), s.utilization() + 1e-12);
  }
}

TEST(ModelFuzz, GuardedBackendNeverEmitsNanUnderFaultStorms) {
  // The end-to-end robustness property the guard exists for: a decode
  // loop running through a GuardedBackend under a seeded mid-run fault
  // schedule must never hand the model NaN/Inf logits, and whenever the
  // ladder reports full recovery the output must still track the exact
  // reference — silent garbage is the one forbidden outcome.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    faults::LaneBankConfig bank_cfg;
    bank_cfg.pdac.bits = 8;
    bank_cfg.wavelengths = 4;
    bank_cfg.variation.tia_gain_sigma = 0.01;
    bank_cfg.variation.bias_sigma = 0.002;
    bank_cfg.variation.seed = seed;
    faults::LaneBank bank(bank_cfg);
    faults::production_trim(bank);
    faults::GuardedBackend backend(bank);

    faults::FaultScheduleConfig sched;
    sched.lanes = bank.lanes();
    sched.bits = 8;
    // The storm clock advances once per tile: 6 products × 4 tiles = 24
    // steps, so a horizon of 24 makes every scheduled event actually
    // strike mid-run instead of landing past the end of the decode loop.
    sched.horizon_steps = 24;
    sched.hard_fault_rate = 0.25;
    sched.drift_fault_rate = 0.5;
    sched.seed = 1000 + seed;
    faults::FaultInjector injector(bank, faults::generate_fault_schedule(sched));
    backend.attach_storm(&injector, 1);

    Rng rng(500 + seed);
    const Matrix w = Matrix::random_gaussian(24, 16, rng);
    const nn::WeightHandle handle{seed, 1};
    for (int token = 0; token < 6; ++token) {
      const Matrix x = Matrix::random_gaussian(16, 24, rng);
      const Matrix logits = backend.matmul_cached(x, w, handle);
      for (double v : logits.data()) {
        ASSERT_TRUE(std::isfinite(v)) << "seed " << seed << " token " << token;
      }
      const faults::HealthSnapshot& snap = backend.monitor().snapshot();
      if (snap.unrecovered == 0 && bank.usable_channels() > 0) {
        const auto err = stats::compare(logits.data(), matmul_reference(x, w).data());
        EXPECT_GT(err.cosine, 0.9) << "seed " << seed << " token " << token;
      }
    }
    // Any corruption left a visible trail: either zero detections, or
    // ladder activity in the monitor.  (A trial can end with the bank
    // fully fenced and later products skipped as outages, so products is
    // bounded, not pinned.)
    const faults::HealthSnapshot& snap = backend.monitor().snapshot();
    EXPECT_GE(snap.products, 1u);
    EXPECT_LE(snap.products, 6u);
    if (snap.detections > 0) {
      EXPECT_GT(snap.retries + snap.retrims + snap.fences + snap.unrecovered, 0u);
    }
  }
}

TEST(ModelFuzz, PhotonicGemmTracksReferenceOnRandomShapes) {
  const auto drv = core::make_ideal_dac_driver(10);
  const ptc::PhotonicGemm gemm(*drv, ptc::GemmConfig{});
  Rng rng(404);
  for (int trial = 0; trial < 12; ++trial) {
    const auto m = static_cast<std::size_t>(rng.integer(1, 24));
    const auto k = static_cast<std::size_t>(rng.integer(1, 48));
    const auto n = static_cast<std::size_t>(rng.integer(1, 24));
    const Matrix a = Matrix::random_gaussian(m, k, rng);
    const Matrix b = Matrix::random_gaussian(k, n, rng);
    const auto res = gemm.multiply(a, b);
    const Matrix exact = matmul_reference(a, b);
    const auto err = stats::compare(res.c.data(), exact.data());
    EXPECT_LT(err.rel_frobenius, 0.05) << m << "x" << k << "x" << n;
    EXPECT_EQ(res.events.macs, m * k * n);
  }
}

}  // namespace
