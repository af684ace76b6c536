// abl_abft_overhead — A22: cost and efficacy of the ABFT checksum guard
// (DESIGN.md §12, faults/guarded_backend.hpp).
//
// Four measurements, each with its own PASS/FAIL gate:
//
//   1. Clean-hardware tax — a guarded and an unguarded GuardedBackend
//      product stream over identical healthy banks must stay bit-identical
//      while the guard verifies ≥ 10k tiles with ZERO false positives;
//      the checksum-lane charge is priced with arch::event_energy at the
//      data path's own per-event rates and reported as an overhead %.
//   2. Detection latency — a single stuck-MRR scheduled at tile step S of
//      a 100-tile product must be caught exactly at the first tile
//      encoded after the strike (latency == S tiles), for several S.
//   3. Mid-inference fault storms — a BERT-style encoder layer runs while
//      a seeded fault schedule fires between products/tiles, through
//      three controllers: unguarded (faults land, nothing notices),
//      BIST-only (periodic self-test screens, silent corruption between
//      screens), and the ABFT guard (in-band detection + escalation
//      ladder).  Cosine accuracy against the fp64 reference is the score.
//   4. Storm-side guard economics — detections, ladder rungs and the
//      recovery re-run energy accumulated across the storm runs.
//
// Writes machine-readable BENCH_abft.json (default: the repository root).
//
// Usage (bench/harness.hpp):
//   abl_abft_overhead            # full shapes (~10k verified tiles)
//   abl_abft_overhead --smoke    # CI smoke: same code paths, small counts
//   abl_abft_overhead --out FILE # JSON destination
#include <algorithm>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "faults/fault_injector.hpp"
#include "faults/guarded_backend.hpp"
#include "faults/self_test.hpp"
#include "harness.hpp"
#include "nn/encoder_layer.hpp"
#include "nn/model_config.hpp"

namespace {

using namespace pdac;
using bench::bank_config;
using bench::price_uj;

constexpr std::uint64_t kSeed = 2027;

faults::FaultScheduleConfig schedule_config(std::size_t lanes, double fault_rate,
                                            std::uint64_t horizon, std::uint64_t seed) {
  faults::FaultScheduleConfig cfg;
  cfg.lanes = lanes;
  cfg.bits = 8;
  cfg.horizon_steps = horizon;
  cfg.hard_fault_rate = 0.5 * fault_rate;  // latched MRRs / dead PDs
  cfg.drift_fault_rate = fault_rate;       // recoverable drift events
  cfg.bias_walk_sigma_per_step = 0.012 * fault_rate;
  cfg.laser_droop_per_step = 0.0003;
  cfg.seed = seed;
  return cfg;
}

/// Advances a fault injector by a fixed step count before every product
/// and (optionally) runs a periodic BIST screen — the "unguarded" and
/// "BIST-only" storm controllers the ABFT guard is compared against.
/// The data path underneath is the unguarded lane executor.
class StormBackend final : public nn::GemmBackend {
 public:
  StormBackend(faults::LaneBank& bank, faults::FaultInjector& injector,
               std::uint64_t steps_per_matmul, std::size_t bist_period)
      : bank_(bank),
        inner_(bank, {.guard = {.enabled = false}}),
        injector_(injector),
        steps_(steps_per_matmul),
        bist_period_(bist_period) {}

  [[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b) override {
    tick();
    return inner_.matmul(a, b);
  }
  [[nodiscard]] Matrix matmul_cached(const Matrix& a, const Matrix& b,
                                     const nn::WeightHandle& w) override {
    tick();
    return inner_.matmul_cached(a, b, w);
  }
  [[nodiscard]] std::string name() const override {
    return bist_period_ > 0 ? "storm/bist-only" : "storm/unguarded";
  }
  [[nodiscard]] std::size_t probe_events() const { return probe_events_; }

 private:
  void tick() {
    injector_.advance_to(injector_.step() + steps_);
    ++calls_;
    if (bist_period_ > 0 && calls_ % bist_period_ == 0) {
      faults::SelfTestConfig st;
      st.attempt_recovery = true;
      probe_events_ += faults::run_self_test(bank_, st).probe_events;
    }
  }

  faults::LaneBank& bank_;
  faults::GuardedBackend inner_;
  faults::FaultInjector& injector_;
  std::uint64_t steps_{1};
  std::size_t bist_period_{0};  ///< 0 = never screen
  std::size_t calls_{0};
  std::size_t probe_events_{0};
};

/// The guarded controller on the same per-product storm clock as
/// StormBackend, so all three modes see the identical fault timeline
/// (bias walk and droop accumulate per step — a per-tile clock would
/// hand the guard orders of magnitude more drift than the baselines;
/// mid-product strike granularity is measured in section 2 instead).
class GuardedStormBackend final : public nn::GemmBackend {
 public:
  GuardedStormBackend(faults::GuardedBackend& inner, faults::FaultInjector& injector)
      : inner_(inner), injector_(injector) {}

  [[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b) override {
    injector_.advance_to(injector_.step() + 1);
    return inner_.matmul(a, b);
  }
  [[nodiscard]] Matrix matmul_cached(const Matrix& a, const Matrix& b,
                                     const nn::WeightHandle& w) override {
    injector_.advance_to(injector_.step() + 1);
    return inner_.matmul_cached(a, b, w);
  }
  [[nodiscard]] std::string name() const override { return "storm/guarded"; }

 private:
  faults::GuardedBackend& inner_;
  faults::FaultInjector& injector_;
};

/// Counts the products one encoder-layer forward issues, so the storm
/// horizon can be sized to span the whole inference.
class CountingBackend final : public nn::GemmBackend {
 public:
  [[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b) override {
    ++calls_;
    return inner_.matmul(a, b);
  }
  [[nodiscard]] std::string name() const override { return "counting"; }
  [[nodiscard]] std::size_t calls() const { return calls_; }

 private:
  nn::ReferenceBackend inner_;
  std::size_t calls_{0};
};

struct StormPoint {
  double fault_rate{};
  double unguarded{};   ///< mean cosine, faults land silently
  double bist_only{};   ///< mean cosine, periodic screens
  double guarded{};     ///< mean cosine, ABFT guard + escalation
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pdac;

  const bench::Args args = bench::parse_args(argc, argv, "BENCH_abft.json");

  std::printf("Ablation A22 — ABFT guard: overhead, detection latency, storm accuracy (%s)\n\n",
              args.smoke ? "smoke" : "full");

  const arch::LtConfig lt = arch::lt_base();
  const arch::PowerParams params = arch::lt_power_params();
  bool all_pass = true;

  // --- 1. clean-hardware tax + zero false positives -------------------------
  // 64×24×64 products on the 8×8 tile grid: 64 verified tiles each.
  const std::size_t tile_target = args.smoke ? 2000 : 10000;
  faults::LaneBank clean_bank(bank_config(4, kSeed));
  faults::production_trim(clean_bank);
  faults::LaneBank plain_bank(bank_config(4, kSeed));  // same fabrication draw
  faults::production_trim(plain_bank);
  faults::GuardedBackend guarded(clean_bank);
  faults::GuardedBackend unguarded(plain_bank, {.guard = {.enabled = false}});

  bool identical = true;
  Rng clean_rng(17);
  while (guarded.monitor().snapshot().tiles_checked < tile_target) {
    const Matrix a = Matrix::random_gaussian(64, 24, clean_rng, 0.0, 1.0);
    const Matrix b = Matrix::random_gaussian(24, 64, clean_rng, 0.0, 1.0);
    identical = identical && bench::bit_identical(guarded.matmul(a, b), unguarded.matmul(a, b));
  }
  const faults::HealthSnapshot& clean_snap = guarded.monitor().snapshot();

  eval::AbftGuardSummary clean_sum;
  clean_sum.products = clean_snap.products;
  clean_sum.tiles_checked = clean_snap.tiles_checked;
  clean_sum.mismatched_tiles = clean_snap.mismatched_tiles;
  clean_sum.detections = clean_snap.detections;
  clean_sum.retries = clean_snap.retries;
  clean_sum.retrims = clean_snap.retrims;
  clean_sum.fences = clean_snap.fences;
  clean_sum.unrecovered = clean_snap.unrecovered;
  clean_sum.mean_detection_latency = clean_snap.mean_detection_latency();
  clean_sum.worst_residual = clean_snap.worst_residual;
  clean_sum.worst_tolerance = clean_snap.worst_tolerance;
  clean_sum.checksum_energy_uj = price_uj(clean_snap.checksum_events, lt, params);
  clean_sum.retry_energy_uj = price_uj(clean_snap.retry_events, lt, params);
  clean_sum.data_energy_uj = price_uj(guarded.events(), lt, params);
  std::printf("%s\n", eval::render_abft_guard("clean hardware (fault-free)", clean_sum).c_str());

  const double overhead = clean_sum.data_energy_uj > 0.0
                              ? (clean_sum.checksum_energy_uj + clean_sum.retry_energy_uj) /
                                    clean_sum.data_energy_uj
                              : 0.0;
  const bool fp_pass = clean_snap.mismatched_tiles == 0 && clean_snap.tiles_checked >= tile_target;
  const bool tax_pass = identical && overhead < 0.35;
  std::printf("bit-identical to unguarded over %zu tiles: %s\n", clean_snap.tiles_checked,
              identical ? "yes" : "NO");
  std::printf("false positives: %zu / %zu tiles -> %s\n", clean_snap.mismatched_tiles,
              clean_snap.tiles_checked, fp_pass ? "PASS (zero)" : "FAIL");
  std::printf("guard energy tax %.2f%% (< 35%% bar) -> %s\n\n", 100.0 * overhead,
              tax_pass ? "PASS" : "FAIL");
  all_pass = all_pass && fp_pass && tax_pass;

  // --- 2. detection latency: fault at tile step S, caught at tile S ---------
  const std::vector<std::uint64_t> fault_steps =
      args.smoke ? std::vector<std::uint64_t>{8, 24} : std::vector<std::uint64_t>{8, 24, 48, 80};
  struct LatencyRow {
    std::uint64_t step;
    double latency;
    std::size_t mismatched;
    std::size_t unrecovered;
  };
  std::vector<LatencyRow> latency_rows;
  bool latency_pass = true;
  for (std::uint64_t step : fault_steps) {
    faults::LaneBank bank(bank_config(4, kSeed + step));
    faults::production_trim(bank);
    faults::GuardedBackend backend(bank);
    faults::FaultSchedule sched;
    sched.cfg.lanes = bank.lanes();
    sched.cfg.bits = 8;
    sched.cfg.horizon_steps = 128;
    faults::FaultEvent ev;
    ev.step = step;
    ev.lane = 3;
    ev.kind = faults::FaultKind::kStuckMrr;
    ev.magnitude = 0.4;
    sched.events.push_back(ev);
    faults::FaultInjector injector(bank, sched);
    backend.attach_storm(&injector, 1);

    Rng rng(29 + step);
    // 80×80 outputs on the 8×8 array: 100 serialized tile steps.
    const Matrix a = Matrix::random_gaussian(80, 16, rng, 0.0, 1.0);
    const Matrix b = Matrix::random_gaussian(16, 80, rng, 0.0, 1.0);
    (void)backend.matmul(a, b);
    const faults::HealthSnapshot& snap = backend.monitor().snapshot();
    const double lat = snap.detections > 0 ? snap.mean_detection_latency() : -1.0;
    latency_rows.push_back({step, lat, snap.mismatched_tiles, snap.unrecovered});
    latency_pass = latency_pass && lat == static_cast<double>(step) && snap.unrecovered == 0;
    std::printf("stuck MRR at tile step %3llu: detected after %s tiles, %zu tiles flagged, "
                "unrecovered %zu\n",
                static_cast<unsigned long long>(step),
                lat < 0 ? "-" : std::to_string(static_cast<long long>(lat)).c_str(),
                snap.mismatched_tiles, snap.unrecovered);
  }
  std::printf("detection exactly at the first faulty tile, all recovered -> %s\n\n",
              latency_pass ? "PASS" : "FAIL");
  all_pass = all_pass && latency_pass;

  // --- 3. encoder-layer accuracy under mid-inference fault storms -----------
  const auto cfg = nn::tiny_transformer(12, 48, 4, 1);
  nn::EncoderLayer layer(cfg.d_model, cfg.heads, cfg.d_ff);
  Rng layer_rng(7);
  layer.init_random(layer_rng);
  Rng in_rng(11);
  const Matrix x = Matrix::random_gaussian(cfg.seq_len, cfg.d_model, in_rng, 0.0, 0.5);
  nn::ReferenceBackend ref;
  const Matrix exact = layer.forward(x, ref);

  CountingBackend counter;
  (void)layer.forward(x, counter);
  const std::uint64_t horizon = counter.calls();  // one storm step per product
  const std::size_t bist_period = std::max<std::size_t>(1, counter.calls() / 4);

  const std::vector<double> rates = args.smoke ? std::vector<double>{0.3}
                                          : std::vector<double>{0.1, 0.3, 0.6};
  const std::size_t n_seeds = args.smoke ? 2 : 3;
  const std::size_t wavelengths = 8;

  std::vector<StormPoint> storm_points;
  eval::AbftGuardSummary storm_sum;  // guard economics across every storm run
  ptc::EventCounter storm_data, storm_checksum, storm_retry;
  for (double rate : rates) {
    StormPoint pt;
    pt.fault_rate = rate;
    for (std::size_t s = 0; s < n_seeds; ++s) {
      const std::uint64_t bank_seed = kSeed + 31 * s;
      const std::uint64_t sched_seed = kSeed + 101 * s + 7;
      const auto sched_cfg = [&](std::size_t lanes) {
        return schedule_config(lanes, rate, horizon, sched_seed);
      };

      // Three identical fabrication + fault draws, three controllers.
      faults::LaneBank b0(bank_config(wavelengths, bank_seed));
      faults::production_trim(b0);
      faults::FaultInjector i0(b0, faults::generate_fault_schedule(sched_cfg(b0.lanes())));
      StormBackend no_guard(b0, i0, 1, 0);
      pt.unguarded += stats::compare(layer.forward(x, no_guard).data(), exact.data()).cosine;

      faults::LaneBank b1(bank_config(wavelengths, bank_seed));
      faults::production_trim(b1);
      faults::FaultInjector i1(b1, faults::generate_fault_schedule(sched_cfg(b1.lanes())));
      StormBackend bist(b1, i1, 1, bist_period);
      pt.bist_only += stats::compare(layer.forward(x, bist).data(), exact.data()).cosine;

      faults::LaneBank b2(bank_config(wavelengths, bank_seed));
      faults::production_trim(b2);
      faults::GuardedBackend abft(b2);
      faults::FaultInjector i2(b2, faults::generate_fault_schedule(sched_cfg(b2.lanes())));
      GuardedStormBackend storm_guarded(abft, i2);
      pt.guarded += stats::compare(layer.forward(x, storm_guarded).data(), exact.data()).cosine;

      const faults::HealthSnapshot& snap = abft.monitor().snapshot();
      storm_sum.products += snap.products;
      storm_sum.tiles_checked += snap.tiles_checked;
      storm_sum.mismatched_tiles += snap.mismatched_tiles;
      storm_sum.detections += snap.detections;
      storm_sum.retries += snap.retries;
      storm_sum.retrims += snap.retrims;
      storm_sum.fences += snap.fences;
      storm_sum.unrecovered += snap.unrecovered;
      storm_sum.mean_detection_latency += snap.detection_latency_tiles;  // summed, divided below
      if (snap.worst_residual > storm_sum.worst_residual) {
        storm_sum.worst_residual = snap.worst_residual;
        storm_sum.worst_tolerance = snap.worst_tolerance;
      }
      storm_data += abft.events();
      storm_checksum += snap.checksum_events;
      storm_retry += snap.retry_events;
    }
    pt.unguarded /= static_cast<double>(n_seeds);
    pt.bist_only /= static_cast<double>(n_seeds);
    pt.guarded /= static_cast<double>(n_seeds);
    storm_points.push_back(pt);
    std::printf("fault rate %4.0f%%: cosine unguarded %.4f | BIST-only %.4f | guarded %.4f\n",
                100.0 * rate, pt.unguarded, pt.bist_only, pt.guarded);
  }
  storm_sum.mean_detection_latency =
      storm_sum.detections > 0
          ? storm_sum.mean_detection_latency / static_cast<double>(storm_sum.detections)
          : 0.0;
  storm_sum.checksum_energy_uj = price_uj(storm_checksum, lt, params);
  storm_sum.retry_energy_uj = price_uj(storm_retry, lt, params);
  storm_sum.data_energy_uj = price_uj(storm_data, lt, params);

  bool storm_pass = true;
  double worst_guarded = 1.0;
  for (const StormPoint& pt : storm_points) {
    worst_guarded = std::min(worst_guarded, pt.guarded);
    if (pt.guarded < pt.unguarded - 1e-3) storm_pass = false;
    if (pt.guarded < pt.bist_only - 1e-3) storm_pass = false;
  }
  storm_pass = storm_pass && worst_guarded > 0.97;
  std::printf("guarded cosine >= both baselines at every rate, worst %.4f (> 0.97 bar) -> %s\n\n",
              worst_guarded, storm_pass ? "PASS" : "FAIL");
  all_pass = all_pass && storm_pass;

  // --- 4. storm-side guard economics ----------------------------------------
  std::printf("%s\n",
              eval::render_abft_guard("fault storms (all rates x seeds)", storm_sum).c_str());

  // CSV for plotting.
  std::vector<std::vector<double>> csv;
  for (const StormPoint& pt : storm_points) {
    csv.push_back({pt.fault_rate, pt.unguarded, pt.bist_only, pt.guarded});
  }
  std::printf("%s\n", eval::to_csv({"fault_rate", "cosine_unguarded", "cosine_bist_only",
                                    "cosine_guarded"},
                                   csv)
                          .c_str());

  bench::Json json;
  json.field("bench", "abft_overhead").field("mode", args.smoke ? "smoke" : "full");
  json.object("clean").field("tiles_checked", clean_snap.tiles_checked);
  json.field("false_positives", clean_snap.mismatched_tiles).field("bit_identical", identical);
  json.field("checksum_energy_uj", clean_sum.checksum_energy_uj, "%.4f");
  json.field("data_energy_uj", clean_sum.data_energy_uj, "%.4f");
  json.field("overhead", overhead, "%.5f").end();
  json.array("detection_latency");
  for (const LatencyRow& row : latency_rows) {
    json.object().field("fault_step", row.step).field("latency_tiles", row.latency, "%.1f").end();
  }
  json.end().array("storm_accuracy");
  for (const StormPoint& pt : storm_points) {
    json.object().field("fault_rate", pt.fault_rate, "%.2f");
    json.field("unguarded", pt.unguarded, "%.4f").field("bist_only", pt.bist_only, "%.4f");
    json.field("guarded", pt.guarded, "%.4f").end();
  }
  json.end().object("storm_guard").field("detections", storm_sum.detections);
  json.field("retries", storm_sum.retries).field("retrims", storm_sum.retrims);
  json.field("fences", storm_sum.fences).field("unrecovered", storm_sum.unrecovered);
  json.field("mean_detection_latency_tiles", storm_sum.mean_detection_latency, "%.2f");
  json.field("retry_energy_uj", storm_sum.retry_energy_uj, "%.4f").end();
  json.field("pass", all_pass);
  if (!json.write(args.out)) return 1;

  std::printf(
      "\nFindings: on healthy hardware the guard is pure observation — the\n"
      "checksum lanes ride the spare row/column of each tile step, so the\n"
      "energy tax is the (h+w)/(h*w) lane ratio, the data path stays\n"
      "bit-identical, and the noise-calibrated band yields zero false\n"
      "positives across the full verification volume.  Under storms the\n"
      "guard detects at the first tile the fault touches (latency == the\n"
      "strike step), while BIST-only leaks corrupted products until the\n"
      "next screen and the unguarded path degrades with every latched\n"
      "lane.  The recovery re-run charge stays a small multiple of one\n"
      "product because the escalation ladder is bounded per product.\n");

  if (!all_pass) {
    std::fprintf(stderr, "FAIL: one or more A22 acceptance gates failed\n");
    return 1;
  }
  return 0;
}
