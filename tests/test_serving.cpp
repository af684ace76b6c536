// Tests for the continuous-batching serving engine over a guarded
// backend pool (DESIGN.md §14): deterministic workloads, per-request
// bit-identity to solo decode at fault rate 0, terminal verdicts under
// fault storms, bounded-queue and deadline shedding, guard-aware
// placement, the re-trim budget, and exact reconciliation of a shared
// HealthMonitor under concurrent multi-backend use (the TSan target).
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "faults/fault_injector.hpp"
#include "faults/guarded_backend.hpp"
#include "serve/engine.hpp"
#include "serve/workload.hpp"

namespace {

using namespace pdac;

faults::LaneBankConfig serve_bank_config(std::uint64_t seed = 7) {
  faults::LaneBankConfig cfg;
  cfg.pdac.bits = 8;
  cfg.wavelengths = 4;
  cfg.variation.tia_gain_sigma = 0.01;
  cfg.variation.bias_sigma = 0.002;
  cfg.variation.vpi_drift_sigma = 0.005;
  cfg.variation.seed = seed;
  return cfg;
}

serve::BackendPoolConfig serve_pool_config(std::size_t backends) {
  serve::BackendPoolConfig cfg;
  cfg.backends = backends;
  cfg.bank = serve_bank_config();
  cfg.guarded.array_rows = 8;
  cfg.guarded.array_cols = 8;
  return cfg;
}

serve::WorkloadConfig small_workload(std::size_t requests, std::size_t d_model = 16) {
  serve::WorkloadConfig wl;
  wl.requests = requests;
  wl.mean_interarrival = 16.0;
  wl.d_model = d_model;
  wl.models = 2;
  wl.prompt_min = 2;
  wl.prompt_max = 8;
  wl.decode_min = 2;
  wl.decode_max = 6;
  wl.seed = 91;
  return wl;
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

/// Per-lane discrete-fault storm (no global drift processes).
faults::FaultSchedule storm_schedule(std::size_t lanes, double rate, std::uint64_t seed) {
  faults::FaultScheduleConfig cfg;
  cfg.lanes = lanes;
  cfg.bits = 8;
  cfg.horizon_steps = 128;
  cfg.hard_fault_rate = 0.5 * rate;
  cfg.drift_fault_rate = rate;
  cfg.seed = seed;
  return faults::generate_fault_schedule(cfg);
}

void expect_all_terminal(const serve::ServingReport& rep, std::size_t submitted) {
  EXPECT_TRUE(rep.reconciled(submitted));
  for (const serve::RequestRecord& rec : rep.records) {
    EXPECT_NE(rec.verdict, serve::Verdict::kPending);
    if (rec.verdict == serve::Verdict::kShed) {
      EXPECT_NE(rec.shed_reason, serve::ShedReason::kNone);
    }
  }
}

TEST(Serving, WorkloadIsDeterministicSortedAndUnitNormalized) {
  const serve::WorkloadConfig wl = small_workload(24);
  const auto first = serve::generate_workload(wl);
  const auto second = serve::generate_workload(wl);
  ASSERT_EQ(first.size(), 24u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].arrival, second[i].arrival);
    EXPECT_EQ(first[i].model, second[i].model);
    EXPECT_EQ(first[i].decode_tokens, second[i].decode_tokens);
    EXPECT_EQ(first[i].activation, second[i].activation);
    if (i > 0) {
      EXPECT_GE(first[i].arrival, first[i - 1].arrival);
    }
    double peak = 0.0;
    for (const double v : first[i].activation) peak = std::max(peak, std::abs(v));
    EXPECT_EQ(peak, 1.0);  // exactly unit max-abs: the scale contract
  }
}

TEST(Serving, DeadlinesScaleWithDecodeLength) {
  serve::WorkloadConfig wl = small_workload(16);
  wl.deadline_slack = 2.0;
  wl.nominal_token_cycles = 10;
  for (const serve::Request& r : serve::generate_workload(wl)) {
    EXPECT_EQ(r.deadline, r.arrival + 2 * 10 * r.decode_tokens);
  }
}

TEST(Serving, InterarrivalGapIsFiniteAtTheUniformUpperBound) {
  // std::uniform_real_distribution may return its upper bound; the raw
  // formula −mean·log(1−u) then yields +inf and the uint64 cast of the
  // arrival clock is UB.  The clamp caps that draw at a large finite
  // gap and leaves every other draw bit-identical to the raw formula.
  const double worst = serve::interarrival_gap(64.0, 1.0);
  EXPECT_TRUE(std::isfinite(worst));
  EXPECT_GT(worst, 0.0);
  EXPECT_EQ(serve::interarrival_gap(64.0, 0.0), 0.0);
  EXPECT_EQ(serve::interarrival_gap(10.0, 0.5), -10.0 * std::log(0.5));
  EXPECT_EQ(serve::interarrival_gap(10.0, 0.875), -10.0 * std::log(1.0 - 0.875));
  // The clamped gap still dominates every in-range draw (monotonicity).
  EXPECT_GE(worst, serve::interarrival_gap(64.0, 0.999999));
}

TEST(Serving, TightDeadlineAtTimeZeroStaysADeadline) {
  // Regression: deadline 0 used to be the no-deadline sentinel, so a
  // t=0 arrival whose sub-cycle span truncated to 0 silently became
  // deadline-free and was served at leisure.  Now the sentinel is
  // Request::kNoDeadline and granted deadlines round *up*.
  serve::WorkloadConfig wl = small_workload(16);
  wl.mean_interarrival = 0.25;    // burst at t≈0, several arrivals at 0
  wl.deadline_slack = 0.001;      // sub-cycle spans: ceil must kick in
  wl.nominal_token_cycles = 1;
  const auto reqs = serve::generate_workload(wl);
  ASSERT_EQ(reqs.front().arrival, 0u);  // the colliding case is present
  for (const serve::Request& r : reqs) {
    EXPECT_TRUE(r.has_deadline());
    EXPECT_GT(r.deadline, r.arrival);  // at least one cycle of slack
  }

  // End to end: impossible deadlines must shed (or finish late) — never
  // complete on time as if no deadline existed.
  auto models = make_models(2, wl.d_model, 17);
  serve::BackendPool pool(serve_pool_config(2));
  serve::ServingEngine engine(pool, models, {});
  const serve::ServingReport rep = engine.run(reqs);
  expect_all_terminal(rep, reqs.size());
  for (const serve::RequestRecord& rec : rep.records) {
    if (rec.verdict == serve::Verdict::kCompleted) {
      EXPECT_TRUE(rec.late);
    }
  }
}

TEST(Serving, AllFencedPoolStallsPlacementAndFailsExplicitly) {
  // Degenerate placement: every backend scores 0 once its lanes fence.
  // The proportional batch cap divides by best_score, so this pins the
  // explicit stall guard (0/0 → NaN → llround would be UB — the UBSan
  // CI job enforces that it can never come back) and the engine's
  // promise of terminal verdicts from a fully dead pool.
  serve::WorkloadConfig wl = small_workload(8);
  const auto reqs = serve::generate_workload(wl);
  auto models = make_models(2, wl.d_model, 17);

  serve::BackendPool pool(serve_pool_config(2));
  for (std::size_t b = 0; b < pool.size(); ++b) {
    faults::FaultScheduleConfig kill;
    kill.lanes = pool.bank(b).lanes();
    kill.bits = 8;
    kill.horizon_steps = 2;
    faults::FaultSchedule sched;
    sched.cfg = kill;
    for (std::size_t lane = 0; lane < kill.lanes; ++lane) {
      faults::FaultEvent ev;
      ev.step = 0;
      ev.lane = lane;
      ev.kind = faults::FaultKind::kStuckMrr;
      ev.magnitude = 0.4;
      sched.events.push_back(ev);
    }
    pool.attach_storm(b, sched, 1);
  }

  serve::ServingEngine engine(pool, models, {});
  const serve::ServingReport rep = engine.run(reqs);
  expect_all_terminal(rep, reqs.size());
  EXPECT_EQ(rep.completed, 0u);
  EXPECT_GT(rep.failed, 0u);
  for (std::size_t b = 0; b < pool.size(); ++b) {
    EXPECT_EQ(pool.health_score(b), 0.0);  // the degenerate case really hit
  }
}

TEST(Serving, PercentileIsNearestRankWithInterpolation) {
  EXPECT_EQ(serve::percentile({}, 50.0), 0.0);
  EXPECT_EQ(serve::percentile({7}, 99.0), 7.0);
  EXPECT_EQ(serve::percentile({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_EQ(serve::percentile({1, 2, 3, 4}, 100.0), 4.0);
  EXPECT_EQ(serve::percentile({4, 3, 2, 1}, 50.0), 2.5);
}

TEST(Serving, CleanPoolBitIdenticalToSoloReferenceAndAllComplete) {
  // The tentpole gate: continuous batching across a pool must be
  // numerically invisible.  Every request completes and every token
  // digest matches a solo replay on one identically-fabricated backend.
  const serve::WorkloadConfig wl = small_workload(16);
  const auto reqs = serve::generate_workload(wl);
  auto models = make_models(2, wl.d_model, 17);

  serve::BackendPoolConfig pool_cfg = serve_pool_config(2);
  serve::BackendPool pool(pool_cfg);
  serve::ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.max_queue = reqs.size();
  serve::ServingEngine engine(pool, models, cfg);
  const serve::ServingReport rep = engine.run(reqs);

  EXPECT_EQ(rep.completed, reqs.size());
  expect_all_terminal(rep, reqs.size());
  EXPECT_GT(rep.tokens_emitted, 0u);
  EXPECT_EQ(rep.tokens_emitted, rep.goodput_tokens);

  faults::LaneBank ref_bank(pool_cfg.bank);
  faults::production_trim(ref_bank);
  faults::GuardedBackend ref_backend(ref_bank, pool_cfg.guarded);
  const auto ref = serve::run_reference(reqs, models, ref_backend);
  for (std::size_t q = 0; q < reqs.size(); ++q) {
    EXPECT_EQ(rep.records[q].digest, ref[q].digest) << "request " << q;
    EXPECT_EQ(rep.records[q].tokens_done, ref[q].tokens_done);
  }
}

TEST(Serving, RunIsDeterministicAcrossRepeats) {
  const serve::WorkloadConfig wl = small_workload(12);
  const auto reqs = serve::generate_workload(wl);
  auto models_a = make_models(2, wl.d_model, 17);
  auto models_b = make_models(2, wl.d_model, 17);

  serve::BackendPool pool_a(serve_pool_config(2));
  serve::BackendPool pool_b(serve_pool_config(2));
  serve::ServingEngine engine_a(pool_a, models_a, {});
  serve::ServingEngine engine_b(pool_b, models_b, {});
  const serve::ServingReport ra = engine_a.run(reqs);
  const serve::ServingReport rb = engine_b.run(reqs);

  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.token_gaps, rb.token_gaps);
  ASSERT_EQ(ra.records.size(), rb.records.size());
  for (std::size_t q = 0; q < ra.records.size(); ++q) {
    EXPECT_EQ(ra.records[q].digest, rb.records[q].digest);
    EXPECT_EQ(ra.records[q].finished_at, rb.records[q].finished_at);
  }
}

TEST(Serving, StormKeepsTokensFlowingAndEveryVerdictTerminal) {
  // Escalation fires mid-batch on every backend, yet the pool sustains
  // goodput and no request is ever silently dropped.
  serve::WorkloadConfig wl = small_workload(16);
  wl.deadline_slack = 16.0;
  wl.nominal_token_cycles = 16;
  const auto reqs = serve::generate_workload(wl);
  auto models = make_models(2, wl.d_model, 17);

  serve::BackendPool pool(serve_pool_config(2));
  for (std::size_t b = 0; b < pool.size(); ++b) {
    pool.attach_storm(b, storm_schedule(pool.bank(b).lanes(), 0.3, 211 + b), 1);
  }
  serve::ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.max_queue = 8;
  serve::ServingEngine engine(pool, models, cfg);
  const serve::ServingReport rep = engine.run(reqs);

  expect_all_terminal(rep, reqs.size());
  EXPECT_GT(rep.goodput_tokens, 0u);
  std::size_t ladder_rungs = 0;
  for (const serve::BackendServeStats& b : rep.backends) {
    ladder_rungs += b.health.retries + b.health.retrims + b.health.fences;
  }
  EXPECT_GT(ladder_rungs, 0u);  // the storm actually exercised recovery
}

TEST(Serving, BoundedQueueShedsOverloadExplicitly) {
  serve::WorkloadConfig wl = small_workload(32);
  wl.mean_interarrival = 0.25;  // burst: everyone arrives at once
  const auto reqs = serve::generate_workload(wl);
  auto models = make_models(2, wl.d_model, 17);

  serve::BackendPool pool(serve_pool_config(1));
  serve::ServingConfig cfg;
  cfg.max_batch = 2;
  cfg.max_queue = 4;
  serve::ServingEngine engine(pool, models, cfg);
  const serve::ServingReport rep = engine.run(reqs);

  expect_all_terminal(rep, reqs.size());
  EXPECT_GT(rep.shed, 0u);
  std::size_t queue_sheds = 0;
  for (const serve::RequestRecord& rec : rep.records) {
    if (rec.shed_reason == serve::ShedReason::kQueueFull) ++queue_sheds;
  }
  EXPECT_GT(queue_sheds, 0u);
}

TEST(Serving, HopelessDeadlinesAreShedNotServed) {
  serve::WorkloadConfig wl = small_workload(24);
  wl.deadline_slack = 0.05;  // deadlines no schedule can meet
  wl.nominal_token_cycles = 4;
  const auto reqs = serve::generate_workload(wl);
  auto models = make_models(2, wl.d_model, 17);

  serve::BackendPool pool(serve_pool_config(2));
  serve::ServingEngine engine(pool, models, {});
  const serve::ServingReport rep = engine.run(reqs);

  expect_all_terminal(rep, reqs.size());
  EXPECT_GT(rep.shed, 0u);
  std::size_t deadline_sheds = 0;
  for (const serve::RequestRecord& rec : rep.records) {
    if (rec.shed_reason == serve::ShedReason::kDeadlineMissed ||
        rec.shed_reason == serve::ShedReason::kAdmissionDeadline) {
      ++deadline_sheds;
    }
  }
  EXPECT_GT(deadline_sheds, 0u);
}

TEST(Serving, PlacementSteersLoadAwayFromTheFaultingBackend) {
  // Storm only slot 1: its guard-aware health score must fall below
  // slot 0's and the scheduler must route the majority of tokens to the
  // clean backend.
  serve::WorkloadConfig wl = small_workload(24);
  const auto reqs = serve::generate_workload(wl);
  auto models = make_models(2, wl.d_model, 17);

  serve::BackendPool pool(serve_pool_config(2));
  pool.attach_storm(1, storm_schedule(pool.bank(1).lanes(), 0.6, 223), 1);
  serve::ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.max_queue = reqs.size();
  serve::ServingEngine engine(pool, models, cfg);
  const serve::ServingReport rep = engine.run(reqs);

  expect_all_terminal(rep, reqs.size());
  EXPECT_GT(rep.goodput_tokens, 0u);
  EXPECT_GT(pool.health_score(0), pool.health_score(1));
  EXPECT_GT(rep.backends[0].tokens, rep.backends[1].tokens);
}

TEST(Serving, ZeroRetrimBudgetClampsTheLadder) {
  serve::WorkloadConfig wl = small_workload(12);
  const auto reqs = serve::generate_workload(wl);
  auto models = make_models(2, wl.d_model, 17);

  serve::BackendPoolConfig pool_cfg = serve_pool_config(2);
  pool_cfg.retrim_budget = 0;
  serve::BackendPool pool(pool_cfg);
  for (std::size_t b = 0; b < pool.size(); ++b) {
    EXPECT_TRUE(pool.throttled(b));
    EXPECT_EQ(pool.retrims_left(b), 0u);
    pool.attach_storm(b, storm_schedule(pool.bank(b).lanes(), 0.4, 307 + b), 1);
  }
  serve::ServingEngine engine(pool, models, {});
  const serve::ServingReport rep = engine.run(reqs);

  expect_all_terminal(rep, reqs.size());
  EXPECT_EQ(rep.throttled_products, rep.products);  // every product clamped
  for (const serve::BackendServeStats& b : rep.backends) {
    EXPECT_EQ(b.health.retrims, 0u);  // the budget held
  }
}

TEST(Serving, OfflinePoolFailsEveryRequestExplicitly) {
  serve::WorkloadConfig wl = small_workload(8);
  const auto reqs = serve::generate_workload(wl);
  auto models = make_models(2, wl.d_model, 17);

  serve::BackendPoolConfig pool_cfg = serve_pool_config(1);
  serve::BackendPool pool(pool_cfg);
  // Fence every lane before serving starts: a pool with zero usable
  // channels must still hand out terminal verdicts, not hang.
  faults::FaultScheduleConfig kill;
  kill.lanes = pool.bank(0).lanes();
  kill.bits = 8;
  kill.horizon_steps = 2;
  faults::FaultSchedule sched;
  sched.cfg = kill;
  for (std::size_t lane = 0; lane < kill.lanes; ++lane) {
    faults::FaultEvent ev;
    ev.step = 0;
    ev.lane = lane;
    ev.kind = faults::FaultKind::kStuckMrr;
    ev.magnitude = 0.4;
    sched.events.push_back(ev);
  }
  pool.attach_storm(0, sched, 1);

  serve::ServingEngine engine(pool, models, {});
  const serve::ServingReport rep = engine.run(reqs);

  expect_all_terminal(rep, reqs.size());
  EXPECT_EQ(rep.completed, 0u);
  EXPECT_GT(rep.failed, 0u);
}

TEST(HealthMonitor, ConcurrentBackendsSharingAMonitorReconcileExactly) {
  // The TSan gate: N threads each drive their own guarded backend (own
  // bank, own fault timeline) into one shared HealthMonitor.  Every
  // counter — products, tiles, ladder rungs, probes, per-lane blame,
  // both event counters — must equal the sum of N serial runs exactly;
  // synchronization may reorder records but never lose or tear one.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kProducts = 4;

  const auto drive = [](faults::GuardedBackend& backend, faults::LaneBank& bank,
                        std::uint64_t tid) {
    // A pre-product stuck MRR per thread forces detections and ladder
    // rungs, so the reconciliation covers the recovery paths too.
    faults::FaultScheduleConfig cfg;
    cfg.lanes = bank.lanes();
    cfg.bits = 8;
    cfg.horizon_steps = 4;
    faults::FaultSchedule sched;
    sched.cfg = cfg;
    faults::FaultEvent ev;
    ev.step = 1;
    ev.lane = tid % bank.lanes();
    ev.kind = faults::FaultKind::kStuckMrr;
    ev.magnitude = 0.4;
    sched.events.push_back(ev);
    faults::FaultInjector injector(bank, sched);
    injector.advance_to(2);

    Rng rng(100 + tid);
    for (std::size_t p = 0; p < kProducts; ++p) {
      const Matrix a = Matrix::random_gaussian(6, 12, rng, 0.0, 1.0);
      const Matrix b = Matrix::random_gaussian(12, 7, rng, 0.0, 1.0);
      (void)backend.matmul(a, b);
    }
  };

  // Serial baseline: per-thread monitors, summed.
  faults::HealthSnapshot want;
  for (std::size_t t = 0; t < kThreads; ++t) {
    faults::LaneBank bank(serve_bank_config(50 + t));
    faults::production_trim(bank);
    faults::GuardedBackend backend(bank);
    drive(backend, bank, t);
    const faults::HealthSnapshot s = backend.monitor().snapshot();
    want.products += s.products;
    want.tiles_checked += s.tiles_checked;
    want.mismatched_tiles += s.mismatched_tiles;
    want.sec_corrections += s.sec_corrections;
    want.detections += s.detections;
    want.retries += s.retries;
    want.retrims += s.retrims;
    want.fences += s.fences;
    want.unrecovered += s.unrecovered;
    want.probe_events += s.probe_events;
    want.detection_latency_tiles += s.detection_latency_tiles;
    want.checksum_events += s.checksum_events;
    want.retry_events += s.retry_events;
    if (want.lane_mismatches.size() < s.lane_mismatches.size()) {
      want.lane_mismatches.resize(s.lane_mismatches.size(), 0);
    }
    for (std::size_t l = 0; l < s.lane_mismatches.size(); ++l) {
      want.lane_mismatches[l] += s.lane_mismatches[l];
    }
  }

  // Concurrent run into one shared monitor.
  faults::HealthMonitor shared;

  std::vector<std::unique_ptr<faults::LaneBank>> banks;
  std::vector<std::unique_ptr<faults::GuardedBackend>> backends;
  for (std::size_t t = 0; t < kThreads; ++t) {
    banks.push_back(std::make_unique<faults::LaneBank>(serve_bank_config(50 + t)));
    faults::production_trim(*banks.back());
    backends.push_back(
        std::make_unique<faults::GuardedBackend>(*banks.back(), faults::GuardedBackendConfig{},
                                                 &shared));
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { drive(*backends[t], *banks[t], t); });
  }
  for (std::thread& th : threads) th.join();

  const faults::HealthSnapshot got = shared.snapshot();
  EXPECT_EQ(got.products, want.products);
  EXPECT_EQ(got.tiles_checked, want.tiles_checked);
  EXPECT_EQ(got.mismatched_tiles, want.mismatched_tiles);
  EXPECT_EQ(got.sec_corrections, want.sec_corrections);
  EXPECT_EQ(got.detections, want.detections);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.retrims, want.retrims);
  EXPECT_EQ(got.fences, want.fences);
  EXPECT_EQ(got.unrecovered, want.unrecovered);
  EXPECT_EQ(got.probe_events, want.probe_events);
  EXPECT_EQ(got.detection_latency_tiles, want.detection_latency_tiles);
  EXPECT_EQ(got.checksum_events.adc_events, want.checksum_events.adc_events);
  EXPECT_EQ(got.checksum_events.ddot_ops, want.checksum_events.ddot_ops);
  EXPECT_EQ(got.checksum_events.macs, want.checksum_events.macs);
  EXPECT_EQ(got.retry_events.adc_events, want.retry_events.adc_events);
  EXPECT_EQ(got.retry_events.macs, want.retry_events.macs);
  EXPECT_EQ(got.total_lane_mismatches(), want.total_lane_mismatches());
  ASSERT_EQ(got.lane_mismatches.size(), want.lane_mismatches.size());
  for (std::size_t l = 0; l < got.lane_mismatches.size(); ++l) {
    EXPECT_EQ(got.lane_mismatches[l], want.lane_mismatches[l]) << "lane " << l;
  }
}

TEST(HealthMonitor, ResetClearsEveryCounter) {
  faults::HealthMonitor monitor;
  monitor.record_action(faults::GuardAction::kRetry);
  monitor.record_implicated_lane(3);
  monitor.record_probe_events(7);
  monitor.reset();
  const faults::HealthSnapshot snap = monitor.snapshot();
  EXPECT_EQ(snap.retries, 0u);
  EXPECT_EQ(snap.probe_events, 0u);
  EXPECT_TRUE(snap.lane_mismatches.empty());
}

}  // namespace
