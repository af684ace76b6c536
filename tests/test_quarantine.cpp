// Tests for the serving-layer drift containment (DESIGN.md §16): the
// BackendPool re-trim budget's exact-boundary window rollover (a
// straddling re-trim is charged once, to its origin window), the
// quarantine/probation state machine — trigger, exponential-backoff
// canary probes, K-consecutive-clean readmission — and the engine-level
// guarantees that a quarantined pool still terminates every request with
// zero failures, and that a probation no probe can end fails the queue
// explicitly.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "faults/fault_schedule.hpp"
#include "serve/engine.hpp"
#include "serve/workload.hpp"

namespace {

using namespace pdac;

faults::LaneBankConfig quarantine_bank_config(std::uint64_t seed = 7) {
  faults::LaneBankConfig cfg;
  cfg.pdac.bits = 8;
  cfg.wavelengths = 4;
  cfg.variation.tia_gain_sigma = 0.01;
  cfg.variation.bias_sigma = 0.002;
  cfg.variation.vpi_drift_sigma = 0.005;
  cfg.variation.seed = seed;
  return cfg;
}

serve::BackendPoolConfig quarantine_pool_config(std::size_t backends) {
  serve::BackendPoolConfig cfg;
  cfg.backends = backends;
  cfg.bank = quarantine_bank_config();
  cfg.guarded.array_rows = 8;
  cfg.guarded.array_cols = 8;
  return cfg;
}

std::vector<nn::Linear> make_models(std::size_t count, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<nn::Linear> models;
  models.reserve(count);
  for (std::size_t m = 0; m < count; ++m) {
    models.emplace_back(d, d);
    models.back().init_random(rng);
  }
  return models;
}

/// Push slot `i`'s drift tracker over the excursion threshold directly —
/// the deterministic stand-in for a sustained in-band wander, with no
/// storm and therefore no uncertainty about when the trigger arms.
void force_excursion(serve::BackendPool& pool, std::size_t i) {
  for (int n = 0; n < 4; ++n) pool.backend(i).drift().observe_residual({0}, 50.0);
  ASSERT_GE(pool.backend(i).drift().excursion_lanes(), 1u);
}

TEST(BackendPool, RetrimWindowBudgetRefillsExactlyAtCycleBoundaries) {
  // Regression for the window-rollover arithmetic: the budget must reset
  // exactly at whole multiples of the window length (anchored at first
  // use), never at `first product after the boundary + window`.
  serve::BackendPoolConfig cfg = quarantine_pool_config(1);
  cfg.retrim_budget = 1;
  cfg.retrim_window = 100;
  serve::BackendPool pool(cfg);

  pool.begin_product(0, 0);
  EXPECT_EQ(pool.retrims_left(0), 1u);
  pool.end_product(0, 1);
  EXPECT_EQ(pool.retrims_left(0), 0u);

  // Still inside [0, 100): exhausted, the ladder is clamped.
  pool.begin_product(0, 99);
  EXPECT_EQ(pool.retrims_left(0), 0u);
  EXPECT_TRUE(pool.throttled(0));
  EXPECT_EQ(pool.throttled_products(), 1u);
  pool.end_product(0, 0);

  // The exact boundary cycle refills the budget and restores the ladder.
  pool.begin_product(0, 100);
  EXPECT_EQ(pool.retrims_left(0), 1u);
  EXPECT_FALSE(pool.throttled(0));
  pool.end_product(0, 1);

  // Idling across several boundaries: the window `now` falls in is
  // [200, 300) — its start a true multiple — NOT [250, 350).
  pool.begin_product(0, 250);
  EXPECT_EQ(pool.retrims_left(0), 1u);
  pool.end_product(0, 1);
  pool.begin_product(0, 299);
  EXPECT_EQ(pool.retrims_left(0), 0u);  // same window as cycle 250
  pool.end_product(0, 0);
  pool.begin_product(0, 300);
  EXPECT_EQ(pool.retrims_left(0), 1u);  // next boundary multiple refills
}

TEST(BackendPool, StraddlingRetrimIsChargedOnceToItsOriginWindow) {
  // A product that begins at cycle 99 and spends its re-trim after the
  // boundary has passed charges the window it BEGAN in, exactly once —
  // the following window opens with its full budget.
  serve::BackendPoolConfig cfg = quarantine_pool_config(1);
  cfg.retrim_budget = 1;
  cfg.retrim_window = 100;
  serve::BackendPool pool(cfg);

  pool.begin_product(0, 99);
  EXPECT_EQ(pool.retrims_left(0), 1u);
  pool.end_product(0, 1);  // lands "after" cycle 100 on the wall clock
  pool.begin_product(0, 101);
  EXPECT_EQ(pool.retrims_left(0), 1u);  // fresh window, not double-charged
  EXPECT_FALSE(pool.throttled(0));
  pool.end_product(0, 0);
  // And the charge did land somewhere: the origin window was spent.
  pool.begin_product(0, 199);
  EXPECT_EQ(pool.retrims_left(0), 1u);  // still window [100, 200), unspent
}

TEST(BackendPool, QuarantineProbesOnBackoffAndReadmitsAfterConsecutiveCleanProbes) {
  serve::BackendPoolConfig cfg = quarantine_pool_config(2);
  cfg.quarantine.enabled = true;
  cfg.quarantine.excursion_lanes = 1;
  cfg.quarantine.probe_backoff = 100;
  cfg.quarantine.probe_backoff_max = 1000;
  cfg.quarantine.readmit_clean_probes = 2;
  serve::BackendPool pool(cfg);
  force_excursion(pool, 0);

  // Trigger: the excursion pulls slot 0 from rotation; slot 1 is unhurt.
  pool.tick(10);
  EXPECT_TRUE(pool.quarantined(0));
  EXPECT_FALSE(pool.in_rotation(0));
  EXPECT_TRUE(pool.in_rotation(1));
  EXPECT_EQ(pool.quarantines(), 1u);
  EXPECT_EQ(pool.next_probe_at(), 110u);

  // Not due yet: ticking early must not probe (idempotent housekeeping).
  pool.tick(109);
  EXPECT_EQ(pool.canary_probes(), 0u);

  // Probe 1 sees the excursion still standing → unclean → force_retrim
  // on the spot (probation is where recovery runs — tracker reset, no
  // fence, capacity preserved) and the backoff doubles.
  pool.tick(110);
  EXPECT_EQ(pool.canary_probes(), 1u);
  EXPECT_TRUE(pool.quarantined(0));
  EXPECT_EQ(pool.backend(0).drift().excursion_lanes(), 0u);
  EXPECT_GE(pool.backend(0).monitor().snapshot().retrims, 1u);
  EXPECT_EQ(pool.bank(0).usable_channels(), pool.bank(1).usable_channels());
  EXPECT_EQ(pool.next_probe_at(), 110u + 200u);

  // Probe 2 is clean but K = 2 requires one more; confirmations re-probe
  // at the base cadence, not the escalated one.
  pool.tick(310);
  EXPECT_EQ(pool.canary_probes(), 2u);
  EXPECT_TRUE(pool.quarantined(0));
  EXPECT_EQ(pool.next_probe_at(), 310u + 100u);

  // Probe 3: second consecutive clean → readmitted, back in rotation.
  pool.tick(410);
  EXPECT_EQ(pool.canary_probes(), 3u);
  EXPECT_FALSE(pool.quarantined(0));
  EXPECT_TRUE(pool.in_rotation(0));
  EXPECT_EQ(pool.readmissions(), 1u);
  EXPECT_EQ(pool.next_probe_at(), std::numeric_limits<std::uint64_t>::max());

  // The log narrates the episode in order.
  const std::vector<serve::QuarantineEvent>& log = pool.quarantine_log();
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log[0].kind, serve::QuarantineEventKind::kQuarantined);
  EXPECT_EQ(log[1].kind, serve::QuarantineEventKind::kProbe);
  EXPECT_FALSE(log[1].clean);
  EXPECT_EQ(log[2].kind, serve::QuarantineEventKind::kProbe);
  EXPECT_TRUE(log[2].clean);
  EXPECT_EQ(log[3].kind, serve::QuarantineEventKind::kProbe);
  EXPECT_TRUE(log[3].clean);
  EXPECT_EQ(log[4].kind, serve::QuarantineEventKind::kReadmitted);
  for (const serve::QuarantineEvent& ev : log) EXPECT_EQ(ev.backend, 0u);

  // A readmission is a clean point: the same tick clock keeps running
  // with no re-trigger — the escalation-history baselines were advanced.
  pool.tick(500);
  EXPECT_FALSE(pool.quarantined(0));
  EXPECT_EQ(pool.quarantines(), 1u);
}

TEST(BackendPool, UncleanProbeRezeroesTheCleanStreak) {
  // K consecutive clean probes means CONSECUTIVE: an unclean probe in
  // the middle restarts the count.  Re-injecting the excursion between
  // probes simulates drift that resurges while on probation.
  serve::BackendPoolConfig cfg = quarantine_pool_config(1);
  cfg.quarantine.enabled = true;
  cfg.quarantine.probe_backoff = 10;
  cfg.quarantine.readmit_clean_probes = 2;
  serve::BackendPool pool(cfg);
  force_excursion(pool, 0);
  pool.tick(0);
  ASSERT_TRUE(pool.quarantined(0));

  pool.tick(10);  // probe 1: unclean (standing excursion) → retrim
  ASSERT_EQ(pool.canary_probes(), 1u);
  pool.tick(30);  // probe 2 (backoff doubled to 20): clean, streak = 1
  ASSERT_EQ(pool.canary_probes(), 2u);
  EXPECT_TRUE(pool.quarantined(0));
  force_excursion(pool, 0);  // drift resurges before the next probe
  pool.tick(40);  // probe 3: unclean again → streak re-zeroed, backoff 40
  ASSERT_EQ(pool.canary_probes(), 3u);
  EXPECT_TRUE(pool.quarantined(0));
  pool.tick(60);  // escalated backoff persists: nothing due before t = 80
  ASSERT_EQ(pool.canary_probes(), 3u);
  pool.tick(80);  // probe 4: clean, streak = 1 — not readmitted
  ASSERT_EQ(pool.canary_probes(), 4u);
  EXPECT_TRUE(pool.quarantined(0));
  EXPECT_EQ(pool.readmissions(), 0u);
  pool.tick(90);  // probe 5 (clean cadence 10): streak = 2 → readmitted
  EXPECT_FALSE(pool.quarantined(0));
  EXPECT_EQ(pool.readmissions(), 1u);
}

TEST(Serving, QuarantinedPoolStillTerminatesEveryRequestWithZeroFailures) {
  // Engine-level liveness: the only backend of the pool enters probation
  // before the run.  The engine must wait for the probe schedule (time
  // advances to next_probe_at instead of failing the queue), readmit,
  // and then serve — every request completes, none fail, and the
  // quarantine counters surface in the report.
  serve::BackendPoolConfig cfg = quarantine_pool_config(1);
  cfg.quarantine.enabled = true;
  cfg.quarantine.probe_backoff = 32;
  cfg.quarantine.readmit_clean_probes = 2;
  serve::BackendPool pool(cfg);
  force_excursion(pool, 0);

  serve::WorkloadConfig wl;
  wl.requests = 8;
  wl.mean_interarrival = 16.0;
  wl.d_model = 16;
  wl.models = 2;
  wl.prompt_min = 2;
  wl.prompt_max = 8;
  wl.decode_min = 2;
  wl.decode_max = 6;
  wl.deadline_slack = 0.0;  // no deadlines: probation must not shed
  wl.seed = 91;
  const std::vector<serve::Request> requests = serve::generate_workload(wl);
  const std::vector<nn::Linear> models = make_models(2, 16, 17);

  serve::ServingEngine engine(pool, models);
  const serve::ServingReport rep = engine.run(requests);

  EXPECT_TRUE(rep.reconciled(requests.size()));
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.completed, requests.size());
  EXPECT_GT(rep.goodput_tokens, 0u);
  EXPECT_GE(rep.quarantines, 1u);
  EXPECT_GE(rep.canary_probes, 1u);
  EXPECT_GE(rep.readmissions, 1u);
  // Report counters are the pool's counters, verbatim.
  EXPECT_EQ(rep.quarantines, pool.quarantines());
  EXPECT_EQ(rep.readmissions, pool.readmissions());
  EXPECT_EQ(rep.canary_probes, pool.canary_probes());
  ASSERT_EQ(rep.backends.size(), 1u);
  EXPECT_FALSE(rep.backends[0].quarantined);  // readmitted by run end
  EXPECT_GT(rep.backends[0].tokens, 0u);
}

TEST(Serving, ProbationThatCannotEndFailsTheQueueExplicitly) {
  // Engine-level termination: the only backend of the pool enters
  // probation before the run, and a bias walk moves its lanes at every
  // tile step, so every canary probe comes back unclean.  Once the slot
  // has probed unclean at probe_backoff_max — backoffs 32, 64, 128 and
  // then 256 — no slot is in rotation, nothing is in flight and no
  // arrival is pending, so the engine fails the queue explicitly, as on
  // an offline pool, instead of probing forever.
  serve::BackendPoolConfig cfg = quarantine_pool_config(1);
  cfg.quarantine.enabled = true;
  cfg.quarantine.probe_backoff = 32;
  cfg.quarantine.probe_backoff_max = 256;
  serve::BackendPool pool(cfg);
  force_excursion(pool, 0);
  faults::FaultSchedule walk;
  walk.cfg.lanes = pool.bank(0).lanes();
  walk.cfg.bits = 8;
  walk.cfg.horizon_steps = std::uint64_t{1} << 30;
  walk.cfg.bias_walk_sigma_per_step = 1e-6;
  pool.attach_storm(0, walk, 1);

  serve::WorkloadConfig wl;
  wl.requests = 4;
  wl.mean_interarrival = 16.0;
  wl.d_model = 16;
  wl.models = 2;
  wl.prompt_min = 2;
  wl.prompt_max = 8;
  wl.decode_min = 2;
  wl.decode_max = 6;
  wl.deadline_slack = 0.0;  // no deadlines: nothing is shed
  wl.seed = 91;
  const std::vector<serve::Request> requests = serve::generate_workload(wl);
  const std::vector<nn::Linear> models = make_models(2, 16, 17);

  serve::ServingEngine engine(pool, models);
  const serve::ServingReport rep = engine.run(requests);

  EXPECT_TRUE(rep.reconciled(requests.size()));
  EXPECT_EQ(rep.failed, requests.size());
  EXPECT_EQ(rep.completed, 0u);
  EXPECT_EQ(rep.shed, 0u);
  for (const serve::RequestRecord& rec : rep.records) {
    EXPECT_EQ(rec.verdict, serve::Verdict::kFailed);
    EXPECT_EQ(rec.tokens_done, 0u);
  }
  EXPECT_EQ(rep.quarantines, 1u);
  EXPECT_EQ(rep.readmissions, 0u);
  EXPECT_EQ(rep.canary_probes, 4u);
  ASSERT_EQ(rep.backends.size(), 1u);
  EXPECT_TRUE(rep.backends[0].quarantined);
  EXPECT_EQ(rep.backends[0].tokens, 0u);
}

}  // namespace
