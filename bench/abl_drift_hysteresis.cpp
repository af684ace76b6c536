// abl_drift_hysteresis — A26: drift-adaptive hysteresis recovery
// (DESIGN.md §16, faults/drift_tracker.hpp, serve/backend_pool.hpp).
//
// Continuous thermal drift (a per-step bias random walk) is the storm
// class A22 showed dominates recovery energy: an always-re-trim guard
// (drift_band = 1.0) burns a recovery ladder on every product the walk
// nudges past the floating-point band, even though the wander is orders
// of magnitude below accuracy-relevant error.  The hysteresis band
// absorbs sub-accuracy drift and the drift tracker re-trims proactively
// only on genuine excursions.  Four measurements, each gated:
//
//   1. Zero-drift identity — with no storm attached, the banded +
//      governed + proactive configuration must be bit-identical to the
//      band-1.0 baseline, product for product, with identical event
//      counts (no rung, no drift tile, no probe on clean hardware).
//   2. Drift sweep — walk rate × hysteresis band grid over a decode
//      product stream; per cell: re-trims (proactive split), governed
//      refusals, absorbed drift tiles, decode cosine vs the fp64
//      reference, and recovery energy (recovery re-runs priced by
//      arch::event_energy plus arch::recalibration_energy over the
//      self-test probes).
//   3. Headline gate at the highest drift rate — the banded policy must
//      spend >= 2x fewer re-trims AND measurably less recovery energy
//      than the always-re-trim baseline, at decode cosine no worse than
//      the baseline's (epsilon 1e-9: the band admits reassociation-scale
//      wander only).
//   4. Serving quarantine — a 2-backend pool with one drift-stormed
//      backend must quarantine it (>= 1 quarantine), keep goodput > 0
//      with zero failed requests, and run canary probes; readmissions
//      are reported (the probe path force-re-trims the slot clean).
//
// Writes machine-readable BENCH_drift.json (default: repository root).
//
// Usage (bench/harness.hpp):
//   abl_drift_hysteresis            # full sweep
//   abl_drift_hysteresis --smoke    # CI smoke: same code paths, small counts
//   abl_drift_hysteresis --out FILE # JSON destination
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "faults/fault_injector.hpp"
#include "faults/guarded_backend.hpp"
#include "harness.hpp"
#include "serve/workload.hpp"

namespace {

using namespace pdac;
using bench::price_uj;

constexpr std::uint64_t kSeed = 2035;

// Decode-product shape: 16x24 activations against a stationary 24x32
// weight on the 8x8 array — 8 verified tiles per product.
constexpr std::size_t kRows = 16;
constexpr std::size_t kInner = 24;
constexpr std::size_t kCols = 32;

/// One policy under test: the hysteresis band plus the §16 governor.
/// Both sides of every comparison share the identical ladder bounds and
/// re-trim window — only the band and the proactive rung differ, so the
/// sweep isolates the hysteresis policy itself.
faults::GuardedBackendConfig guarded_config(double band, bool proactive) {
  faults::GuardedBackendConfig cfg;
  cfg.array_rows = 8;
  cfg.array_cols = 8;
  cfg.guard.drift_band = band;
  cfg.escalation.proactive_retrim = proactive;
  cfg.escalation.retrim_cooldown_products = 4;
  cfg.escalation.window_retrims = 16;
  cfg.escalation.window_products = 32;
  // Pure-drift storms: fencing is for hard faults.  A governed-out
  // re-trim falls through to a best-effort product (unrecovered++),
  // whose error is bounded by the walk itself — sub-accuracy.
  cfg.escalation.allow_fence = false;
  return cfg;
}

struct DecodeRun {
  double cosine{0.0};  ///< mean decode cosine vs the fp64 reference
  double recovery_uj{0.0};
  faults::HealthSnapshot snap;
  faults::DriftSnapshot drift;
  std::vector<Matrix> outputs;  ///< kept only for the identity gate
};

/// Decode `products` products through one guarded backend with a
/// bias-walk storm of `walk_sigma` rad/step advancing one step per tile
/// (0 = no storm attached).  Identical seeds everywhere, so two calls
/// differing only in policy see the same fabrication draw, the same walk
/// trajectory and the same operand stream.
DecodeRun run_decode(double band, bool proactive, double walk_sigma, std::size_t products,
                     bool keep_outputs, const arch::LtConfig& lt,
                     const arch::PowerParams& params) {
  faults::LaneBank bank(bench::bank_config(4, kSeed));  // one fabrication draw
  faults::production_trim(bank);
  faults::GuardedBackend backend(bank, guarded_config(band, proactive));

  faults::FaultSchedule schedule;
  std::unique_ptr<faults::FaultInjector> injector;
  if (walk_sigma > 0.0) {
    schedule.cfg.lanes = bank.lanes();
    schedule.cfg.bits = 8;
    schedule.cfg.horizon_steps = products * 16 + 16;
    schedule.cfg.bias_walk_sigma_per_step = walk_sigma;
    schedule.cfg.seed = kSeed + 7;  // one walk trajectory for every policy
    injector = std::make_unique<faults::FaultInjector>(bank, schedule);
    backend.attach_storm(injector.get(), 1);
  }

  Rng rng(kSeed + 13);
  const Matrix b = Matrix::random_gaussian(kInner, kCols, rng, 0.0, 1.0);
  nn::ReferenceBackend ref;

  DecodeRun run;
  for (std::size_t t = 0; t < products; ++t) {
    const Matrix a = Matrix::random_gaussian(kRows, kInner, rng, 0.0, 1.0);
    Matrix c = backend.matmul(a, b);
    run.cosine += stats::compare(c.data(), ref.matmul(a, b).data()).cosine;
    if (keep_outputs) run.outputs.push_back(std::move(c));
  }
  run.cosine /= static_cast<double>(products);
  run.snap = backend.monitor().snapshot();
  run.drift = backend.drift().snapshot();

  arch::RecalibrationCost recal;
  recal.probe_events = run.snap.probe_events;
  recal.retrims = run.snap.retrims;
  run.recovery_uj =
      price_uj(run.snap.retry_events, lt, params) +
      arch::recalibration_energy(recal, lt, params, 8, arch::SystemVariant::kPdacBased)
              .joules() *
          1e6;
  return run;
}

struct SweepCell {
  double walk_sigma{};
  double band{};
  DecodeRun run;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pdac;

  const bench::Args args = bench::parse_args(argc, argv, "BENCH_drift.json");

  std::printf("Ablation A26 — drift-adaptive hysteresis recovery (%s)\n\n",
              args.smoke ? "smoke" : "full");

  const arch::LtConfig lt = arch::lt_base();
  const arch::PowerParams params = arch::lt_power_params();
  const std::size_t products = args.smoke ? 32 : 96;
  const double kBand = 14.0;  // headline hysteresis band (drift_band)
  bool all_pass = true;

  // --- 1. zero-drift identity ------------------------------------------------
  // No storm: the banded + proactive + governed policy must be pure
  // observation, bit-identical to the band-1.0 baseline with identical
  // event counts — enabling the feature costs nothing on clean hardware.
  const DecodeRun id_base = run_decode(1.0, false, 0.0, products, true, lt, params);
  const DecodeRun id_band = run_decode(kBand, true, 0.0, products, true, lt, params);
  bool identity = id_base.outputs.size() == id_band.outputs.size();
  for (std::size_t t = 0; identity && t < id_base.outputs.size(); ++t) {
    identity = bench::bit_identical(id_base.outputs[t], id_band.outputs[t]);
  }
  const bool events_identical =
      id_base.snap.tiles_checked == id_band.snap.tiles_checked &&
      id_base.snap.mismatched_tiles == 0 && id_band.snap.mismatched_tiles == 0 &&
      id_base.snap.retries == 0 && id_band.snap.retries == 0 &&
      id_base.snap.retrims == 0 && id_band.snap.retrims == 0 &&
      id_base.snap.drift_tiles == 0 && id_band.snap.drift_tiles == 0 &&
      id_base.snap.proactive_retrims == 0 && id_band.snap.proactive_retrims == 0 &&
      id_base.snap.governed_retrims == 0 && id_band.snap.governed_retrims == 0;
  const bool identity_pass = identity && events_identical;
  std::printf("zero drift: %zu products bit-identical across policies: %s; "
              "event counts identical and all-zero: %s -> %s\n\n",
              products, identity ? "yes" : "NO", events_identical ? "yes" : "NO",
              identity_pass ? "PASS" : "FAIL");
  all_pass = all_pass && identity_pass;

  // --- 2. drift sweep: walk rate x hysteresis band ---------------------------
  // Walk sigmas sized to the guard band itself: the band is
  // reassociation-scale (64·eps·k·(fan+1)·mag), so "drift" here is
  // wander *below the accuracy budget* — exactly the class the paper's
  // periodic re-calibration overpays for.
  const std::vector<double> rates = args.smoke ? std::vector<double>{2e-13, 8e-13}
                                          : std::vector<double>{5e-14, 2e-13, 8e-13};
  const std::vector<double> bands = {1.0, 4.0, kBand};

  std::vector<SweepCell> sweep;
  std::printf("%10s %6s %9s %10s %9s %9s %7s %11s %13s\n", "walk[rad]", "band", "retrims",
              "proactive", "governed", "driftTile", "unrec", "cosine", "recovery[uJ]");
  for (const double rate : rates) {
    for (const double band : bands) {
      SweepCell cell;
      cell.walk_sigma = rate;
      cell.band = band;
      // band 1.0 is the always-re-trim baseline: no proactive rung, the
      // ladder fires on every over-tolerance product.
      cell.run = run_decode(band, band > 1.0, rate, products, false, lt, params);
      std::printf("%10.0e %6.1f %9zu %10zu %9zu %9zu %7zu %11.8f %13.4f\n", rate, band,
                  cell.run.snap.retrims, cell.run.snap.proactive_retrims,
                  cell.run.snap.governed_retrims, cell.run.snap.drift_tiles,
                  cell.run.snap.unrecovered, cell.run.cosine, cell.run.recovery_uj);
      sweep.push_back(std::move(cell));
    }
  }
  std::printf("\n");

  // --- 3. headline gate at the highest drift rate ----------------------------
  const double high = rates.back();
  const SweepCell* base = nullptr;
  const SweepCell* banded = nullptr;
  for (const SweepCell& cell : sweep) {
    if (cell.walk_sigma == high && cell.band == 1.0) base = &cell;
    if (cell.walk_sigma == high && cell.band == kBand) banded = &cell;
  }
  const bool retrim_pass =
      base->run.snap.retrims >= 2 * std::max<std::size_t>(banded->run.snap.retrims, 1);
  const bool energy_pass = banded->run.recovery_uj < base->run.recovery_uj;
  const bool cosine_pass = banded->run.cosine >= base->run.cosine - 1e-9;
  std::printf("high drift (%.0e rad/step): re-trims %zu -> %zu (>= 2x fewer) -> %s\n", high,
              base->run.snap.retrims, banded->run.snap.retrims, retrim_pass ? "PASS" : "FAIL");
  std::printf("recovery energy %.4f uJ -> %.4f uJ (lower) -> %s\n", base->run.recovery_uj,
              banded->run.recovery_uj, energy_pass ? "PASS" : "FAIL");
  std::printf("decode cosine %.9f vs baseline %.9f (no worse, eps 1e-9) -> %s\n\n",
              banded->run.cosine, base->run.cosine, cosine_pass ? "PASS" : "FAIL");
  all_pass = all_pass && retrim_pass && energy_pass && cosine_pass;

  // --- 4. serving quarantine/readmission -------------------------------------
  // Two identically-fabricated backends; backend 0 alone takes an
  // accuracy-relevant drift-fault burst (every lane hit inside a short
  // horizon).  The pool must pull it from rotation (quarantine), keep
  // every request terminal with goodput > 0 on the healthy slot, and —
  // because the burst is finite — probe the slot clean again and readmit
  // it (the probe path force-re-trims until the canary verifies).
  serve::BackendPoolConfig pool_cfg;
  pool_cfg.backends = 2;
  pool_cfg.bank = bench::bank_config(8, kSeed);
  pool_cfg.guarded = guarded_config(kBand, true);
  // The SIMD tier on wide hosts, the scalar kernel otherwise.
  pool_cfg.guarded.path = ptc::fastest_path();
  pool_cfg.retrim_budget = 4;
  pool_cfg.retrim_window = 1024;
  pool_cfg.quarantine.enabled = true;
  pool_cfg.quarantine.excursion_lanes = 1;
  pool_cfg.quarantine.retrim_storm = 3;
  pool_cfg.quarantine.probe_backoff = 64;
  pool_cfg.quarantine.readmit_clean_probes = 2;
  serve::BackendPool pool(pool_cfg);

  faults::FaultScheduleConfig storm;
  storm.lanes = pool.bank(0).lanes();
  storm.bits = 8;
  storm.horizon_steps = 48;     // burst: exhausted after a few products
  storm.drift_fault_rate = 1.0; // every lane suffers one drift event
  storm.seed = kSeed + 29;
  pool.attach_storm(0, faults::generate_fault_schedule(storm), 1);

  const std::size_t d_model = 48;
  std::vector<nn::Linear> models;
  {
    Rng mrng(kSeed + 31);
    models.emplace_back(d_model, d_model);
    models.back().init_random(mrng);
  }
  serve::WorkloadConfig wl;
  wl.requests = args.smoke ? 16 : 32;
  wl.mean_interarrival = 24.0;
  wl.d_model = d_model;
  wl.models = 1;
  wl.deadline_slack = 0.0;  // no deadlines: completion is the only exit
  wl.seed = kSeed + 37;
  const std::vector<serve::Request> reqs = serve::generate_workload(wl);

  serve::ServingConfig scfg;
  scfg.max_batch = 4;
  scfg.max_queue = wl.requests;
  serve::ServingEngine engine(pool, models, scfg);
  const serve::ServingReport rep = engine.run(reqs);

  const eval::ServingSummary ss = bench::serving_summary(rep, reqs.size(), lt, params);
  std::printf("%s\n", eval::render_serving("drift-stormed pool (quarantine live)", ss).c_str());

  const bool quarantine_pass = rep.quarantines >= 1 && rep.failed == 0 &&
                               rep.goodput_tokens > 0 && rep.reconciled(reqs.size()) &&
                               rep.canary_probes >= 1;
  std::printf("quarantines %zu (>= 1), canary probes %zu (>= 1), readmissions %zu, "
              "failed %zu (== 0), goodput %zu (> 0) -> %s\n\n",
              rep.quarantines, rep.canary_probes, rep.readmissions, rep.failed,
              rep.goodput_tokens, quarantine_pass ? "PASS" : "FAIL");
  all_pass = all_pass && quarantine_pass;

  // --- JSON -------------------------------------------------------------------
  bench::Json json;
  json.field("bench", "drift_hysteresis").field("mode", args.smoke ? "smoke" : "full");
  json.object("zero_drift").field("products", products).field("bit_identical", identity);
  json.field("events_identical", events_identical).end();
  json.array("sweep");
  for (const SweepCell& cell : sweep) {
    json.object().field("walk_sigma", cell.walk_sigma, "%.1e").field("band", cell.band, "%.1f");
    json.field("retrims", cell.run.snap.retrims);
    json.field("proactive_retrims", cell.run.snap.proactive_retrims);
    json.field("governed_retrims", cell.run.snap.governed_retrims);
    json.field("drift_tiles", cell.run.snap.drift_tiles);
    json.field("unrecovered", cell.run.snap.unrecovered);
    json.field("cosine", cell.run.cosine, "%.9f");
    json.field("recovery_uj", cell.run.recovery_uj, "%.4f").end();
  }
  json.end().object("headline").field("walk_sigma", high, "%.1e");
  json.field("retrims_baseline", base->run.snap.retrims);
  json.field("retrims_banded", banded->run.snap.retrims);
  json.field("recovery_uj_baseline", base->run.recovery_uj, "%.4f");
  json.field("recovery_uj_banded", banded->run.recovery_uj, "%.4f");
  json.field("cosine_baseline", base->run.cosine, "%.9f");
  json.field("cosine_banded", banded->run.cosine, "%.9f").end();
  json.object("serving").field("requests", reqs.size()).field("completed", rep.completed);
  json.field("shed", rep.shed).field("failed", rep.failed);
  json.field("goodput_tokens", rep.goodput_tokens).field("quarantines", rep.quarantines);
  json.field("readmissions", rep.readmissions).field("canary_probes", rep.canary_probes).end();
  json.field("pass", all_pass);
  if (!json.write(args.out)) return 1;

  std::printf(
      "\nFindings: an always-re-trim guard pays a full recovery ladder for\n"
      "every product a thermal walk nudges past the floating-point band,\n"
      "even though the wander is orders of magnitude below accuracy-\n"
      "relevant error.  The hysteresis band absorbs that wander as watched\n"
      "drift tiles, the EWMA tracker converts sustained growth into one\n"
      "proactive off-path re-trim per excursion, and the windowed governor\n"
      "bounds worst-case probe burn — same decode cosine, a fraction of\n"
      "the re-trims and recovery energy.  At serving level the same drift\n"
      "signal drives quarantine: the stormed backend leaves rotation, the\n"
      "healthy slot keeps goodput flowing with zero failed requests, and\n"
      "canary probes earn the slot readmission once re-trims hold.\n");

  if (!all_pass) {
    std::fprintf(stderr, "FAIL: one or more A26 acceptance gates failed\n");
    return 1;
  }
  return 0;
}
