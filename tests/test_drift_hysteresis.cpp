// Tests for the drift-adaptive hysteresis recovery policy (DESIGN.md
// §16) end to end on a live bank: the banded guard verdict that absorbs
// sub-accuracy bias wander, the proactive re-trim fired by the drift
// tracker's excursion signal, the windowed re-trim governor with its
// exact-boundary budget refill, walk-trajectory determinism across
// thread counts, and the guard-interplay contract — lanes drifting
// inside the band must not mask a hard fault on any numeric tier.
#include <gtest/gtest.h>

#include <cmath>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "faults/fault_injector.hpp"
#include "faults/guarded_backend.hpp"

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

/// Pure continuous bias random walk — no discrete events.  The walk is
/// fp-reassociation-scale on purpose: the guard band on a deterministic
/// bank is ~1e-13 relative (abft.hpp), so "sub-accuracy wander" means
/// per-step sigmas around 1e-13..1e-12 rad.
faults::FaultSchedule walk_schedule(std::size_t lanes, double sigma,
                                    std::uint64_t horizon, std::uint64_t seed = 11) {
  faults::FaultSchedule sched;
  sched.cfg.lanes = lanes;
  sched.cfg.bits = 8;
  sched.cfg.horizon_steps = horizon;
  sched.cfg.bias_walk_sigma_per_step = sigma;
  sched.cfg.seed = seed;
  return sched;
}

faults::FaultEvent stuck_mrr(std::size_t lane, std::uint64_t step = 1) {
  faults::FaultEvent ev;
  ev.step = step;
  ev.lane = lane;
  ev.kind = faults::FaultKind::kStuckMrr;
  ev.magnitude = 0.4;
  return ev;
}

void expect_matrices_equal(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]) << "element " << i;
  }
}

struct WalkRun {
  Matrix out;                  ///< last product's output
  faults::HealthSnapshot snap;
  faults::DriftSnapshot drift;
  std::vector<double> levels;  ///< per-lane tracker levels at the end
};

/// Decode `products` identical products under a per-tile bias walk.
/// Shape 16×24 · 24×32 → 8 tiles per product on the 8×8 array.
WalkRun run_walk(double band, bool proactive, double sigma, std::size_t products,
                 std::size_t threads = 1) {
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackendConfig cfg;
  cfg.threads = threads;
  cfg.guard.drift_band = band;
  cfg.escalation.proactive_retrim = proactive;
  cfg.escalation.retrim_cooldown_products = 2;
  faults::GuardedBackend backend(bank, cfg);
  faults::FaultInjector injector(
      bank, walk_schedule(bank.lanes(), sigma, products * 16 + 16));
  backend.attach_storm(&injector, 1);

  Rng rng(33);
  const Matrix a = Matrix::random_gaussian(16, 24, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(24, 32, rng, 0.0, 1.0);
  WalkRun run;
  for (std::size_t p = 0; p < products; ++p) run.out = backend.matmul(a, b);
  run.snap = backend.monitor().snapshot();
  run.drift = backend.drift().snapshot();
  run.levels.reserve(backend.drift().lanes());
  for (std::size_t l = 0; l < backend.drift().lanes(); ++l) {
    run.levels.push_back(backend.drift().level(l));
  }
  return run;
}

TEST(DriftHysteresis, BandAbsorbsSubBandWanderWithoutEscalation) {
  // The same fp-scale walk trajectory under both policies: the legacy
  // band (1.0) keeps escalating as the walk diffuses across its
  // tolerance, while a wide band absorbs every tile as watched drift —
  // no detections, no rungs, and the wander is visible in the drift
  // counters instead of the recovery counters.
  const WalkRun base = run_walk(1.0, false, 8e-13, 12);
  EXPECT_GE(base.snap.detections, 1u);
  EXPECT_GE(base.snap.retrims, 1u);

  const WalkRun banded = run_walk(1000.0, false, 8e-13, 12);
  EXPECT_EQ(banded.snap.detections, 0u);
  EXPECT_EQ(banded.snap.mismatched_tiles, 0u);
  EXPECT_EQ(banded.snap.retries, 0u);
  EXPECT_EQ(banded.snap.retrims, 0u);
  EXPECT_EQ(banded.snap.fences, 0u);
  EXPECT_EQ(banded.snap.unrecovered, 0u);
  EXPECT_GE(banded.snap.drift_tiles, 1u);
  EXPECT_GE(banded.snap.drift_products, 1u);
  EXPECT_GT(banded.snap.worst_drift_ratio, 1.0);
  // Absorbed wander is still sub-accuracy: against the fp64 reference
  // the banded run scores no worse than a drift-free run of the same
  // bank — the ~1e-3 residual is the 8-bit encoder's quantization, and
  // the fp-scale walk adds nothing measurable on top.
  const WalkRun clean = run_walk(1000.0, false, 0.0, 12);
  Rng rng(33);
  const Matrix a = Matrix::random_gaussian(16, 24, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(24, 32, rng, 0.0, 1.0);
  const Matrix exact = matmul_reference(a, b);
  const double banded_cos = stats::compare(banded.out.data(), exact.data()).cosine;
  const double clean_cos = stats::compare(clean.out.data(), exact.data()).cosine;
  EXPECT_GT(banded_cos, 0.99);
  EXPECT_GE(banded_cos, clean_cos - 1e-9);
}

TEST(DriftHysteresis, ZeroDriftBandedPolicyBitIdenticalToLegacy) {
  // With no drift the middle verdict zone is never entered: the full
  // hysteresis policy (wide band, proactive re-trim armed) must be
  // bit-identical to the legacy band — outputs AND event counters.
  const WalkRun legacy = run_walk(1.0, false, 0.0, 6);
  const WalkRun banded = run_walk(14.0, true, 0.0, 6);
  expect_matrices_equal(banded.out, legacy.out);
  EXPECT_EQ(banded.snap.detections, 0u);
  EXPECT_EQ(legacy.snap.detections, 0u);
  EXPECT_EQ(banded.snap.drift_tiles, 0u);
  EXPECT_EQ(banded.snap.retrims, 0u);
  EXPECT_EQ(banded.snap.proactive_retrims, 0u);
  EXPECT_EQ(banded.snap.governed_retrims, 0u);
  EXPECT_EQ(banded.snap.tiles_checked, legacy.snap.tiles_checked);
  EXPECT_EQ(banded.drift.residual_samples, legacy.drift.residual_samples);
}

TEST(DriftHysteresis, TrackerExcursionFiresProactiveRetrim) {
  // A faster walk pushes the per-lane EWMA over the excursion threshold
  // while the wide band still absorbs every tile: recovery then comes
  // from the proactive rung at product entry — re-trims happen, but not
  // one detection ever fires on the serving path.
  const WalkRun run = run_walk(1000.0, true, 2e-12, 24);
  EXPECT_GE(run.snap.proactive_retrims, 1u);
  EXPECT_EQ(run.snap.retrims, run.snap.proactive_retrims);
  EXPECT_EQ(run.snap.detections, 0u);
  EXPECT_EQ(run.snap.unrecovered, 0u);
  EXPECT_GE(run.snap.drift_tiles, 1u);
  EXPECT_GT(run.snap.probe_events, 0u);  // proactive recovery burns probes
}

TEST(DriftHysteresis, WindowedGovernorRefillsExactlyAtBoundaryMultiples) {
  // Legacy band, a walk strong enough to mismatch every product, and a
  // ladder reduced to the re-trim rung (no retries, no fence) under a
  // 1-per-4-products governor.  The budget must refill exactly at the
  // window boundaries — products 1, 4 and 8 re-trim (windows anchored at
  // product 0 roll at whole multiples of 4) and every other product is a
  // governed refusal that degrades to a best-effort give-up.
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackendConfig cfg;
  cfg.escalation.max_retries = 0;
  cfg.escalation.max_retrims = 1;
  cfg.escalation.allow_fence = false;
  cfg.escalation.window_retrims = 1;
  cfg.escalation.window_products = 4;
  faults::GuardedBackend backend(bank, cfg);
  faults::FaultInjector injector(bank, walk_schedule(bank.lanes(), 1e-10, 256));
  backend.attach_storm(&injector, 1);

  Rng rng(35);
  const Matrix a = Matrix::random_gaussian(16, 24, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(24, 32, rng, 0.0, 1.0);
  for (int p = 0; p < 8; ++p) (void)backend.matmul(a, b);

  const faults::HealthSnapshot snap = backend.monitor().snapshot();
  EXPECT_EQ(snap.products, 8u);
  EXPECT_EQ(snap.detections, 8u);
  EXPECT_EQ(snap.retrims, 3u);           // products 1, 4, 8
  EXPECT_EQ(snap.governed_retrims, 5u);  // products 2, 3, 5, 6, 7
  EXPECT_EQ(snap.unrecovered, 5u);       // the refusals degrade, not stall
  EXPECT_EQ(snap.proactive_retrims, 0u);
}

TEST(DriftHysteresis, WalkTrajectoriesBitIdenticalAcrossThreadCounts) {
  // Satellite determinism contract: the bias random walk is one serial
  // seeded stream advanced per tile step, so the drift trajectory — and
  // with it outputs, absorbed-tile counts and per-lane tracker levels —
  // must be bit-identical at any simulation thread count.
  const WalkRun serial = run_walk(1000.0, false, 8e-13, 8, /*threads=*/1);
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const WalkRun wide = run_walk(1000.0, false, 8e-13, 8, threads);
    expect_matrices_equal(wide.out, serial.out);
    EXPECT_EQ(wide.snap.drift_tiles, serial.snap.drift_tiles);
    EXPECT_EQ(wide.snap.drift_products, serial.snap.drift_products);
    EXPECT_EQ(wide.snap.detections, serial.snap.detections);
    EXPECT_EQ(wide.snap.worst_drift_ratio, serial.snap.worst_drift_ratio);
    EXPECT_EQ(wide.drift.residual_samples, serial.drift.residual_samples);
    ASSERT_EQ(wide.levels.size(), serial.levels.size());
    for (std::size_t l = 0; l < wide.levels.size(); ++l) {
      EXPECT_EQ(wide.levels[l], serial.levels[l]) << "lane " << l;
    }
  }
}

/// Guard-interplay contract (DESIGN.md §16): lanes wandering INSIDE the
/// hysteresis band must not mask a hard fault.  A stuck MRR lands
/// mid-product on top of an absorbed walk; the strike sits orders of
/// magnitude outside band·tol, so detection and the recovery ladder must
/// fire exactly as on a drift-free bank, on every numeric tier.
void run_hard_strike_mid_band(ptc::ExecutionPath path) {
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackendConfig cfg;
  cfg.path = path;
  cfg.guard.drift_band = 1000.0;
  faults::GuardedBackend backend(bank, cfg);
  faults::FaultSchedule sched = walk_schedule(bank.lanes(), 2e-12, 256);
  sched.events.push_back(stuck_mrr(3, 40));  // strikes inside product 2
  faults::FaultInjector injector(bank, sched);
  backend.attach_storm(&injector, 1);

  Rng rng(41);
  // 48×48 outputs on the 8×8 array: 36 serialized tile steps/product.
  const Matrix a = Matrix::random_gaussian(48, 16, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(16, 48, rng, 0.0, 1.0);
  Matrix out;
  for (int p = 0; p < 3; ++p) out = backend.matmul(a, b);

  const faults::HealthSnapshot snap = backend.monitor().snapshot();
  EXPECT_GE(snap.drift_tiles, 1u);   // the walk was being absorbed …
  EXPECT_GE(snap.detections, 1u);    // … and the strike was still caught
  EXPECT_EQ(snap.unrecovered, 0u);   // recovery ladder fully recovered it
  EXPECT_TRUE(bank.lane(3).fenced);  // self-test fenced the stuck lane
  const auto err = stats::compare(out.data(), matmul_reference(a, b).data());
  EXPECT_GT(err.cosine, 0.99);
}

TEST(DriftHysteresis, HardStrikeMidBandIsCaughtOnScalarTier) {
  run_hard_strike_mid_band(ptc::ExecutionPath::kKernel);
}

TEST(DriftHysteresis, HardStrikeMidBandIsCaughtOnSimdTier) {
  run_hard_strike_mid_band(ptc::ExecutionPath::kKernelSimd);
}

}  // namespace
