// perf_serving — A24: continuous-batching serving over a guarded backend
// pool (DESIGN.md §14, serve/engine.hpp).
//
// Three measurements, each with its own PASS/FAIL gate:
//
//   1. Batching is numerically invisible — at fault rate 0 the engine's
//      per-request token digests must be bit-identical to a solo replay
//      of every request on a single identically-fabricated backend, for
//      every request, regardless of how the scheduler batched and placed
//      them.  All requests must complete (nothing shed, nothing failed).
//   2. Tokens keep flowing through fault storms — at every fault rate
//      the pool must sustain goodput > 0 while escalation rungs (retry /
//      re-trim / fence / degraded re-run) fire mid-batch, and every
//      request must reach a terminal verdict: completed + shed + failed
//      == submitted, never a silent drop.
//   3. Serving economics — p50/p99 inter-token latency, request latency,
//      pool energy (data + checksum lanes, recovery re-runs included)
//      and goodput-per-joule, reported per fault rate.
//
// Writes machine-readable BENCH_serving.json (default: repository root).
//
// Usage (bench/harness.hpp):
//   perf_serving            # full sweep
//   perf_serving --smoke    # CI smoke: same code paths, small counts
//   perf_serving --out FILE # JSON destination
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/workload.hpp"

namespace {

using namespace pdac;

constexpr std::uint64_t kSeed = 2033;  // one fabrication draw for every slot

faults::FaultScheduleConfig schedule_config(std::size_t lanes, double fault_rate,
                                            std::uint64_t seed) {
  faults::FaultScheduleConfig cfg;
  cfg.lanes = lanes;
  cfg.bits = 8;
  // Sized so the schedule actually fires inside the serving run: the
  // storm clock ticks once per tile and a sweep run covers a few
  // hundred tiles.  Per-lane discrete faults only — a global bias walk
  // or laser droop would (correctly) fence the entire bank once the
  // re-trim budget clamps, which tests annihilation, not serving.
  cfg.horizon_steps = 512;
  cfg.hard_fault_rate = 0.5 * fault_rate;
  cfg.drift_fault_rate = fault_rate;
  cfg.bias_walk_sigma_per_step = 0.0;
  cfg.laser_droop_per_step = 0.0;
  cfg.seed = seed;
  return cfg;
}

serve::BackendPoolConfig pool_config(std::size_t backends) {
  serve::BackendPoolConfig cfg;
  cfg.backends = backends;
  cfg.bank = bench::bank_config(8, kSeed);
  cfg.guarded.array_rows = 8;
  cfg.guarded.array_cols = 8;
  cfg.retrim_budget = 2;
  cfg.retrim_window = 2048;
  // Route the pool's tile dots through the fastest numeric tier
  // (DESIGN.md §15): the SIMD tier on wide hosts and the scalar kernel
  // otherwise; the solo-replay reference below is built from the same
  // config, so the bit-identity gate judges the selected tier itself.
  cfg.guarded.path = ptc::fastest_path();
  // Quarantine/readmission (DESIGN.md §16): inert at fault rate 0 (no
  // trigger ever fires, so the identity gate is untouched) and active
  // in the storm sweep, where chronically-implicated backends leave
  // rotation and earn their way back through canary probes.
  cfg.quarantine.enabled = true;
  cfg.quarantine.unrecovered_products = 2;
  cfg.quarantine.fence_events = 3;
  cfg.quarantine.probe_backoff = 256;
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

}  // namespace

int main(int argc, char** argv) {
  using namespace pdac;

  const bench::Args args = bench::parse_args(argc, argv, "BENCH_serving.json");

  std::printf("A24 — continuous-batching serving over a guarded backend pool (%s)\n\n",
              args.smoke ? "smoke" : "full");

  const arch::LtConfig lt = arch::lt_base();
  const arch::PowerParams params = arch::lt_power_params();
  const std::size_t backends = 3;
  const std::size_t d_model = 48;
  const std::size_t n_models = 2;
  bool all_pass = true;

  // --- 1. continuous batching is bit-identical to solo decode --------------
  serve::WorkloadConfig wl;
  wl.requests = args.smoke ? 24 : 72;
  wl.mean_interarrival = 24.0;  // enough pressure to form real batches
  wl.d_model = d_model;
  wl.models = n_models;
  wl.deadline_slack = 0.0;  // no deadlines: completion is the only exit
  wl.seed = kSeed;
  const std::vector<serve::Request> identity_reqs = serve::generate_workload(wl);

  std::vector<nn::Linear> models = make_models(n_models, d_model, kSeed + 1);

  serve::BackendPoolConfig pool_cfg = pool_config(backends);
  serve::BackendPool pool(pool_cfg);
  serve::ServingConfig scfg;
  scfg.max_batch = 4;
  scfg.max_queue = wl.requests;  // admission must never shed this gate
  serve::ServingEngine engine(pool, models, scfg);
  const serve::ServingReport clean = engine.run(identity_reqs);

  faults::LaneBank ref_bank(pool_cfg.bank);
  faults::production_trim(ref_bank);
  faults::GuardedBackend ref_backend(ref_bank, pool_cfg.guarded);
  const std::vector<serve::RequestRecord> ref =
      serve::run_reference(identity_reqs, models, ref_backend);

  std::size_t digest_mismatches = 0;
  for (std::size_t q = 0; q < identity_reqs.size(); ++q) {
    if (clean.records[q].digest != ref[q].digest) ++digest_mismatches;
  }
  const bool identity_pass = clean.completed == identity_reqs.size() && digest_mismatches == 0 &&
                             clean.reconciled(identity_reqs.size());
  std::printf("%s\n", eval::render_serving("fault rate 0 (identity gate)",
                                          bench::serving_summary(clean, identity_reqs.size(),
                                                                 lt, params))
                          .c_str());
  std::printf("all %zu requests completed, %zu digest mismatches vs solo reference -> %s\n\n",
              identity_reqs.size(), digest_mismatches, identity_pass ? "PASS" : "FAIL");
  all_pass = all_pass && identity_pass;

  // --- 2/3. fault-storm sweep: goodput, verdicts, latency, economics --------
  const std::vector<double> rates =
      args.smoke ? std::vector<double>{0.3} : std::vector<double>{0.1, 0.3, 0.6};
  struct SweepRow {
    double fault_rate;
    eval::ServingSummary s;
    bool reconciled;
  };
  std::vector<SweepRow> sweep;
  bool storm_pass = true;

  serve::WorkloadConfig storm_wl = wl;
  storm_wl.requests = args.smoke ? 24 : 48;
  storm_wl.deadline_slack = 12.0;  // deadlines live: shedding is allowed
  storm_wl.nominal_token_cycles = 64;
  storm_wl.seed = kSeed + 11;
  const std::vector<serve::Request> storm_reqs = serve::generate_workload(storm_wl);

  for (const double rate : rates) {
    serve::BackendPool storm_pool(pool_cfg);
    for (std::size_t b = 0; b < storm_pool.size(); ++b) {
      storm_pool.attach_storm(
          b,
          faults::generate_fault_schedule(schedule_config(
              storm_pool.bank(b).lanes(), rate, kSeed + 101 * (b + 1))),
          1);
    }
    serve::ServingConfig storm_cfg;
    storm_cfg.max_batch = 4;
    storm_cfg.max_queue = 16;  // bounded queue: overload sheds, explicitly
    serve::ServingEngine storm_engine(storm_pool, models, storm_cfg);
    const serve::ServingReport rep = storm_engine.run(storm_reqs);

    SweepRow row{rate, bench::serving_summary(rep, storm_reqs.size(), lt, params),
                 rep.reconciled(storm_reqs.size())};
    sweep.push_back(row);

    char title[64];
    std::snprintf(title, sizeof(title), "fault rate %.0f%%", 100.0 * rate);
    std::printf("%s\n", eval::render_serving(title, row.s).c_str());
    const bool ok = row.reconciled && rep.goodput_tokens > 0;
    std::printf("verdicts reconcile (%zu+%zu+%zu == %zu) and goodput > 0 -> %s\n\n",
                rep.completed, rep.shed, rep.failed, storm_reqs.size(), ok ? "PASS" : "FAIL");
    storm_pass = storm_pass && ok;
  }
  all_pass = all_pass && storm_pass;

  // CSV for plotting.
  std::vector<std::vector<double>> csv;
  for (const SweepRow& row : sweep) {
    csv.push_back({row.fault_rate, static_cast<double>(row.s.completed),
                   static_cast<double>(row.s.shed), static_cast<double>(row.s.failed),
                   static_cast<double>(row.s.goodput_tokens), row.s.p50_token_gap,
                   row.s.p99_token_gap, row.s.energy_uj, row.s.goodput_per_joule});
  }
  std::printf("%s\n",
              eval::to_csv({"fault_rate", "completed", "shed", "failed", "goodput_tokens",
                            "p50_token_gap", "p99_token_gap", "energy_uj", "goodput_per_joule"},
                           csv)
                  .c_str());

  bench::Json json;
  json.field("bench", "serving").field("mode", args.smoke ? "smoke" : "full");
  json.object("identity").field("requests", identity_reqs.size());
  json.field("completed", clean.completed).field("digest_mismatches", digest_mismatches);
  json.field("bit_identical", identity_pass).end();
  json.array("sweep");
  for (const SweepRow& row : sweep) {
    json.object().field("fault_rate", row.fault_rate, "%.2f");
    json.field("completed", row.s.completed).field("shed", row.s.shed);
    json.field("failed", row.s.failed).field("goodput_tokens", row.s.goodput_tokens);
    json.field("p50_token_gap", row.s.p50_token_gap, "%.1f");
    json.field("p99_token_gap", row.s.p99_token_gap, "%.1f");
    json.field("p50_request_latency", row.s.p50_request_latency, "%.1f");
    json.field("p99_request_latency", row.s.p99_request_latency, "%.1f");
    json.field("energy_uj", row.s.energy_uj, "%.4f");
    json.field("goodput_per_joule", row.s.goodput_per_joule, "%.1f");
    json.field("throttled_products", row.s.throttled_products);
    json.field("quarantines", row.s.quarantines).field("readmissions", row.s.readmissions);
    json.field("canary_probes", row.s.canary_probes).field("reconciled", row.reconciled).end();
  }
  json.end().field("pass", all_pass);
  if (!json.write(args.out)) return 1;

  std::printf(
      "\nFindings: continuous batching over the guarded pool is numerically\n"
      "invisible — per-request unit max-abs normalization pins the quantizer\n"
      "scale at 1.0, so a token's bits never depend on its batchmates and\n"
      "the engine digests match the solo replay exactly.  Under storms the\n"
      "pool keeps emitting tokens while individual backends stall on\n"
      "escalation rungs: health-aware placement shifts load away from\n"
      "implicated arrays, the re-trim budget caps probe burn per window,\n"
      "and every submitted request still ends completed, shed or failed —\n"
      "the tail pays in p99 inter-token latency, not in silent drops.\n");

  if (!all_pass) {
    std::fprintf(stderr, "FAIL: one or more A24 acceptance gates failed\n");
    return 1;
  }
  return 0;
}
