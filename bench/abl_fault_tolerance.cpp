// abl_fault_tolerance — robustness ablation: end-to-end LLM accuracy vs
// device fault rate, with the detection/recovery loop on and off.
//
// The fault pipeline under test (DESIGN.md "Robustness pipeline"):
//   seeded FaultSchedule → FaultInjector (stuck MRRs, dead/degraded PDs,
//   TIA gain steps, bias random walk, laser droop) → self-test BIST →
//   re-trim drift faults / fence hard faults → degraded mapping.
//
// Three operating modes at each fault rate:
//   no-detect  — faults land and nothing notices: dead lanes keep
//                feeding garbage into reductions (the accuracy cliff);
//   detect     — the BIST fences every out-of-budget lane but never
//                re-trims, trading throughput for accuracy;
//   recover    — drift-class faults are re-trimmed back into budget and
//                only true hard faults are fenced.
//
// Accuracy is a transformer encoder layer (BERT-style pre-norm block,
// scaled-down shape so the per-lane device simulation stays tractable)
// run through the surviving lanes and compared against the fp64
// reference; throughput and recalibration energy come from mapping the
// full BERT-base trace onto LT-B with the measured degraded capacity.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/energy_model.hpp"
#include "arch/lt_config.hpp"
#include "arch/mapper.hpp"
#include "arch/power_params.hpp"
#include "common/stats.hpp"
#include "eval/report.hpp"
#include "faults/fault_injector.hpp"
#include "faults/guarded_backend.hpp"
#include "faults/self_test.hpp"
#include "harness.hpp"
#include "nn/encoder_layer.hpp"
#include "nn/model_config.hpp"
#include "nn/workload_trace.hpp"

namespace {

using namespace pdac;
using bench::bank_config;

enum class Mode { kNoDetect, kDetectOnly, kDetectRecover };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kNoDetect: return "no-detect";
    case Mode::kDetectOnly: return "detect-only (mask)";
    case Mode::kDetectRecover: return "detect + recover";
  }
  return "?";
}

constexpr std::uint64_t kHorizon = 32;
constexpr std::uint64_t kSeed = 2026;
constexpr double kErrorBudget = 0.085;  // the paper's approximation bound

faults::FaultScheduleConfig schedule_config(std::size_t lanes, double fault_rate,
                                            std::uint64_t seed) {
  faults::FaultScheduleConfig cfg;
  cfg.lanes = lanes;
  cfg.bits = 8;
  cfg.horizon_steps = kHorizon;
  cfg.hard_fault_rate = 0.5 * fault_rate;  // latched MRRs / dead PDs
  cfg.drift_fault_rate = fault_rate;       // recoverable drift events
  cfg.bias_walk_sigma_per_step = 0.012 * fault_rate;
  cfg.laser_droop_per_step = 0.0003;
  cfg.seed = seed;
  return cfg;
}

/// Encoder-layer accuracy through one (possibly degraded) lane bank, on
/// the unguarded lane executor.
double layer_cosine(faults::LaneBank& bank) {
  const auto cfg = nn::tiny_transformer(12, 48, 4, 1);
  nn::EncoderLayer layer(cfg.d_model, cfg.heads, cfg.d_ff);
  Rng rng(7);
  layer.init_random(rng);
  Rng in_rng(11);
  const Matrix x = Matrix::random_gaussian(cfg.seq_len, cfg.d_model, in_rng, 0.0, 0.5);

  nn::ReferenceBackend ref;
  const Matrix exact = layer.forward(x, ref);
  faults::GuardedBackend photonic(bank, {.guard = {.enabled = false}});
  const Matrix approx = layer.forward(x, photonic);
  return stats::compare(approx.data(), exact.data()).cosine;
}

struct ModeRow {
  eval::FaultRateRow row;
  double accuracy_lane0{};  ///< cosine through the measured array
};

/// ABFT-guard detection latency at one fault rate (bench A22 measures
/// the full sweep; this column makes A19 and A22 directly comparable):
/// one guarded 100-tile product under a mid-product storm drawn from the
/// same schedule family, reporting mean tiles-scanned-until-detection.
/// Returns −1 (rendered "-") when the schedule never strikes a used lane.
double measure_detect_latency(double fault_rate) {
  faults::LaneBank bank(bank_config(8, kSeed + 999));
  faults::production_trim(bank);
  faults::GuardedBackend backend(bank);
  faults::FaultScheduleConfig cfg =
      schedule_config(bank.lanes(), fault_rate, kSeed + 997);
  // The continuous processes (bias walk, laser droop) perturb every lane
  // every step, so the guard flags them at the very first tile — true,
  // but an uninformative constant.  The latency column isolates the
  // *discrete* strikes (stuck MRRs, dead PDs, TIA gain steps): tiles
  // scanned until the first scheduled event lands in-band.
  cfg.bias_walk_sigma_per_step = 0.0;
  cfg.laser_droop_per_step = 0.0;
  faults::FaultInjector injector(bank, faults::generate_fault_schedule(cfg));
  backend.attach_storm(&injector, 1);
  Rng rng(23);
  const Matrix a = Matrix::random_gaussian(80, 16, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(16, 80, rng, 0.0, 1.0);
  (void)backend.matmul(a, b);
  const faults::HealthSnapshot& snap = backend.monitor().snapshot();
  return snap.detections == 0 ? -1.0 : snap.mean_detection_latency();
}

/// Simulate every array of the LT pool at one (rate, mode) point.
ModeRow evaluate_point(double fault_rate, Mode mode, const arch::LtConfig& lt,
                       const arch::PowerParams& params, std::uint64_t healthy_makespan) {
  ModeRow out;
  out.row.fault_rate = fault_rate;

  arch::RecalibrationCost recal;
  std::size_t healthy_arrays = 0;
  double availability_sum = 0.0;
  std::vector<faults::LaneBank*> accuracy_banks;
  std::vector<faults::LaneBank> banks;
  banks.reserve(lt.arrays());

  // Every array is its own fabricated instance with its own fault draw.
  const std::size_t min_usable = std::max<std::size_t>(1, lt.wavelengths / 4);
  for (std::size_t arr = 0; arr < lt.arrays(); ++arr) {
    banks.emplace_back(bank_config(lt.wavelengths, kSeed + 17 * arr));
    faults::LaneBank& bank = banks.back();
    faults::production_trim(bank);  // factory calibration precedes deployment
    faults::FaultInjector injector(
        bank, faults::generate_fault_schedule(
                  schedule_config(bank.lanes(), fault_rate, kSeed + 101 * arr)));
    injector.advance_to(kHorizon);

    if (mode != Mode::kNoDetect) {
      faults::SelfTestConfig st;
      st.error_budget = kErrorBudget;
      st.attempt_recovery = mode == Mode::kDetectRecover;
      const faults::SelfTestReport rep = faults::run_self_test(bank, st);
      recal.probe_events += rep.probe_events;
      recal.retrims += rep.retrims;
      out.row.lanes_dead += rep.dead;
      out.row.lanes_recovered += rep.recovered;
    }

    const std::size_t usable = bank.usable_channels();
    // Scheduling policy: an array that lost more than 3/4 of its WDM
    // channels computes too narrow to be worth keeping — fence it whole
    // and remap its tiles so the survivors run near full reduction width.
    if (usable >= min_usable) {
      ++healthy_arrays;
      availability_sum += static_cast<double>(usable) /
                          static_cast<double>(lt.wavelengths);
      if (accuracy_banks.size() < 4) accuracy_banks.push_back(&bank);
    }
  }

  // Accuracy averaged over a few surviving arrays (they are statistically
  // identical, so this just tames sampling noise); a fully fenced pool is
  // an outage.
  double cosine_sum = 0.0;
  for (faults::LaneBank* b : accuracy_banks) cosine_sum += layer_cosine(*b);
  out.accuracy_lane0 =
      accuracy_banks.empty()
          ? 0.0
          : cosine_sum / static_cast<double>(accuracy_banks.size());
  out.row.cosine_accuracy = out.accuracy_lane0;

  const auto trace = nn::trace_forward(nn::bert_base());
  if (healthy_arrays == 0) {
    out.row.throughput_scale = 0.0;
  } else {
    arch::DegradedCapacity cap;
    cap.healthy_arrays = healthy_arrays;
    cap.wavelength_availability =
        mode == Mode::kNoDetect ? 1.0  // nothing fenced, nothing stretched
                                : availability_sum / static_cast<double>(healthy_arrays);
    const arch::Schedule degraded = arch::schedule_trace(trace, lt, cap);
    recal.remapped_tiles += degraded.remapped_tiles;
    out.row.throughput_scale = static_cast<double>(healthy_makespan) /
                               static_cast<double>(degraded.makespan_cycles);
  }

  out.row.recal_energy_uj =
      arch::recalibration_energy(recal, lt, params, 8, arch::SystemVariant::kPdacBased)
          .joules() *
      1e6;
  return out;
}

}  // namespace

int main() {
  std::printf("Ablation A19 — fault tolerance: LLM accuracy vs device fault rate\n");
  std::printf("(schedule seed %llu, horizon %llu steps, error budget %.1f%%)\n\n",
              static_cast<unsigned long long>(kSeed),
              static_cast<unsigned long long>(kHorizon), 100.0 * kErrorBudget);

  const arch::LtConfig lt = arch::lt_base();
  const arch::PowerParams params = arch::lt_power_params();
  const auto healthy =
      arch::schedule_trace(nn::trace_forward(nn::bert_base()), lt);

  bool all_pass = true;
  // Reproducibility: the same config must regenerate the same schedule.
  {
    const auto cfg = schedule_config(2 * lt.wavelengths, 0.4, kSeed + 101);
    const auto a = faults::generate_fault_schedule(cfg);
    const auto b = faults::generate_fault_schedule(cfg);
    bool same = a.events.size() == b.events.size();
    for (std::size_t i = 0; same && i < a.events.size(); ++i) {
      same = faults::to_string(a.events[i]) == faults::to_string(b.events[i]);
    }
    std::printf("schedule replay determinism: %s (%zu events at rate 40%%)\n\n",
                same ? "PASS" : "FAIL", a.events.size());
    all_pass = same;
  }

  const std::vector<double> rates = {0.0, 0.05, 0.1, 0.2, 0.4, 0.6};
  const std::vector<Mode> modes = {Mode::kNoDetect, Mode::kDetectOnly,
                                   Mode::kDetectRecover};

  // Detection latency is a property of the in-band ABFT guard, not of
  // the per-mode BIST policy, so it is measured once per rate and shown
  // on the detecting modes ("-" for no-detect, which by definition never
  // notices).
  std::vector<double> detect_latency;
  detect_latency.reserve(rates.size());
  for (double rate : rates) detect_latency.push_back(measure_detect_latency(rate));

  std::vector<std::vector<eval::FaultRateRow>> results(modes.size());
  for (std::size_t m = 0; m < modes.size(); ++m) {
    for (std::size_t i = 0; i < rates.size(); ++i) {
      eval::FaultRateRow row =
          evaluate_point(rates[i], modes[m], lt, params, healthy.makespan_cycles).row;
      if (modes[m] != Mode::kNoDetect) row.detect_latency_tiles = detect_latency[i];
      results[m].push_back(row);
    }
    std::printf("%s", eval::render_fault_tolerance(mode_name(modes[m]), results[m]).c_str());
    std::printf("\n");
  }

  // --- acceptance checks ------------------------------------------------------
  const auto& no_detect = results[0];
  const auto& recover = results[2];
  double worst_cliff = 0.0;
  for (std::size_t i = 1; i < recover.size(); ++i) {
    worst_cliff = std::max(
        worst_cliff, recover[i - 1].cosine_accuracy - recover[i].cosine_accuracy);
  }
  double recovery_gain = 0.0;
  bool recovery_never_worse = true;
  for (std::size_t i = 1; i < recover.size(); ++i) {
    const double d = recover[i].cosine_accuracy - no_detect[i].cosine_accuracy;
    recovery_gain += d;
    if (d < -1e-3) recovery_never_worse = false;
  }
  const bool no_cliff = worst_cliff < 0.10 &&
                        recover.back().cosine_accuracy > 0.90;
  const bool recovery_pass = recovery_gain > 0.05 && recovery_never_worse;
  all_pass = all_pass && no_cliff && recovery_pass;
  std::printf("graceful degradation (recovery on): worst step-to-step cosine drop "
              "%.4f, cosine at %.0f%% faults %.4f -> %s\n",
              worst_cliff, 100.0 * rates.back(), recover.back().cosine_accuracy,
              no_cliff ? "PASS (no cliff)" : "FAIL");
  std::printf("recovery benefit: mean cosine gain over no-detect %.4f, never worse: "
              "%s -> %s\n\n",
              recovery_gain / static_cast<double>(rates.size() - 1),
              recovery_never_worse ? "yes" : "no", recovery_pass ? "PASS" : "FAIL");

  // CSV for plotting.
  std::vector<std::vector<double>> csv;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const auto& r = results[m][i];
      csv.push_back({static_cast<double>(m), r.fault_rate,
                     static_cast<double>(r.lanes_dead),
                     static_cast<double>(r.lanes_recovered), r.throughput_scale,
                     r.cosine_accuracy, r.recal_energy_uj, r.detect_latency_tiles});
    }
  }
  std::printf("%s", eval::to_csv({"mode", "fault_rate", "lanes_dead", "lanes_recovered",
                                  "throughput_scale", "cosine", "recal_energy_uj",
                                  "detect_latency_tiles"},
                                 csv)
                        .c_str());

  std::printf(
      "\nFindings: without detection the accuracy falls off a cliff as soon as\n"
      "stuck modulators start feeding latched amplitudes into reductions —\n"
      "the reduction is a sum, so one loud dead lane poisons every output it\n"
      "touches.  Masking alone restores most accuracy at a throughput cost\n"
      "that grows with the fault rate (narrower reductions take more chunks).\n"
      "Re-trimming recovers the drift-class faults (bias walk, TIA gain\n"
      "steps) at a few probe-events' energy, keeping both accuracy and\n"
      "throughput near nominal until genuinely dead hardware dominates.\n");

  if (!all_pass) {
    std::fprintf(stderr, "FAIL: one or more A19 acceptance checks failed\n");
    return 1;
  }
  return 0;
}
