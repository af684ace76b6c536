// perf_kernel — fused flat-array kernel vs the device-graph path on the
// GEMM hot loop (DESIGN.md §13), measured as decode throughput.
//
// Replays BERT-base KV-cache decode (the perf_weight_cache trace) on the
// full-optics + ADC configuration three times — with
// ptc::ExecutionPath::kDeviceGraph (every chunk staged through the
// WdmField/device objects), kKernel (the bit-exact fused
// coefficient-table kernel) and kKernelSimd (the vector-blocked fast
// tier) — and reports tokens/s for each.  The scalar kernel's contract
// is exactness, so the bench GATES on bit-identity, not just speed:
//   * clean decode: kernel output == device-graph output (memcmp) and
//     every EventCounter field equal;
//   * ABFT-guarded decode: same, plus identical guard verdicts.
// The SIMD tier's contract is tolerance-banded identity (DESIGN.md §13):
//   * raw GEMMs land every element within the ABFT guard band of the
//     scalar kernel (band = rescale · guard_tolerance with
//     calibrate_guard_sigma — the same machinery the runtime guard uses);
//   * event accounting matches the scalar kernel field for field;
//   * end-to-end decode output stays within a model-accuracy gate
//     (cosine vs the scalar kernel) so low-bit ADC-code straddles cannot
//     compound into a real accuracy change;
//   * guarded decode reports the same guard verdict counts as scalar;
//   * a GuardedBackend product under a mid-product fault storm reports
//     the scalar tier's detections, mismatches and events.
// Any divergence exits non-zero, so CI fails on an identity regression.
// In full mode the kernel must additionally clear the >=3x tokens/s bar
// vs the device graph, and the SIMD tier the >=1.5x bar vs the scalar
// kernel (2x is the target; the gate leaves headroom for CI hosts).
//
// Every decode runs bench::DecodeModel (BERT-base through
// MultiHeadAttention::forward_decode and nn::Linear) on the 8-bit P-DAC
// driver.  Each tier's ms/token is the median of 5 tokens timed
// round-robin across the three timed backends after one warmup round that
// fills every operand cache; the quartiles are printed and written beside
// it.
//
// Writes machine-readable BENCH_kernel.json (default: repository root).
//
// Usage (bench/harness.hpp):
//   perf_kernel             # full BERT-base shapes, 3x gate enforced
//   perf_kernel --smoke     # tiny shapes, identity gates only
//   perf_kernel --layers N  # override the layer count
//   perf_kernel --out FILE  # JSON destination
#include <memory>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "faults/fault_injector.hpp"
#include "faults/guarded_backend.hpp"
#include "harness.hpp"
#include "ptc/abft.hpp"

namespace {

using namespace pdac;
using bench::cosine;
using bench::events_equal;
using bench::hot_config;

/// Tolerance-banded identity on raw GEMMs: the SIMD tier must land every
/// element within the ABFT guard band of the bit-exact scalar kernel.
/// The band is rescale · guard_tolerance(k, fan=1, |mag|=k) with the
/// noise sigma calibrated to the ADC step — exactly the bound the
/// runtime guard would apply to a single output, so "within band" means
/// "indistinguishable from the scalar kernel by the guard itself".
/// Event accounting must match field for field on every shape.
bool band_identity() {
  Rng rng(1234);
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 768, 768}, {12, 128, 64}, {5, 333, 17}};
  const auto drv = core::make_pdac_driver(8);
  for (const auto& s : shapes) {
    const Matrix a = Matrix::random_gaussian(s.m, s.k, rng, 0.0, 1.0);
    const Matrix b = Matrix::random_gaussian(s.k, s.n, rng, 0.0, 1.0);
    const ptc::PhotonicGemm scalar_gemm(*drv, hot_config(ptc::ExecutionPath::kKernel));
    const ptc::PhotonicGemm fast_gemm(*drv, hot_config(ptc::ExecutionPath::kKernelSimd));
    const ptc::GemmResult sr = scalar_gemm.multiply(a, b);
    const ptc::GemmResult vr = fast_gemm.multiply(a, b);
    if (!events_equal(vr.events, sr.events)) return false;
    ptc::GuardConfig g;  // the band's fixed slack and z-score
    g.noise_sigma = ptc::calibrate_guard_sigma(hot_config(ptc::ExecutionPath::kKernel).dot, s.k);
    const double band = sr.a_scale * sr.b_scale *
                        ptc::guard_tolerance(g, s.k, 1, static_cast<double>(s.k));
    if (vr.c.rows() != sr.c.rows() || vr.c.cols() != sr.c.cols()) return false;
    for (std::size_t i = 0; i < sr.c.size(); ++i) {
      if (std::abs(vr.c.data()[i] - sr.c.data()[i]) > band) return false;
    }
  }
  return true;
}

/// Operand bytes one 8×8 tile step moves at reduction length k: (h+w)·k
/// double operand loads, h·w double output stores, plus the SIMD tier's w
/// column energies Σy², read from the prepared operand where they were
/// summed once at prepare/append.
std::size_t tier_bytes_per_tile(ptc::ExecutionPath path, std::size_t k) {
  const std::size_t h = 8, w = 8;
  std::size_t bytes = (h + w) * k * sizeof(double) + h * w * sizeof(double);
  if (path == ptc::ExecutionPath::kKernelSimd) {
    bytes += w * sizeof(double);  // PreparedOperand::energy of the tile's columns
  }
  return bytes;
}

/// One GuardedBackend product under the shared mid-product fault storm
/// (a stuck MRR at tile 2, a TIA gain step at tile 4) on one numeric tier.
void storm_run(ptc::ExecutionPath path, Matrix* out, ptc::EventCounter* ev,
               faults::HealthSnapshot* snap) {
  Rng rng(77);
  const Matrix a = Matrix::random_gaussian(24, 40, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(40, 20, rng, 0.0, 1.0);

  faults::LaneBankConfig bc;
  bc.pdac.bits = 8;
  bc.wavelengths = 6;
  bc.variation.tia_gain_sigma = 0.01;
  bc.variation.bias_sigma = 0.002;
  bc.variation.seed = 21;
  faults::LaneBank bank(bc);
  faults::production_trim(bank);

  faults::FaultSchedule sched;
  sched.cfg.lanes = bank.lanes();
  sched.cfg.bits = 8;
  sched.cfg.horizon_steps = 16;
  faults::FaultEvent stuck;
  stuck.step = 2;
  stuck.lane = 3;
  stuck.kind = faults::FaultKind::kStuckMrr;
  stuck.magnitude = 0.5;
  sched.events.push_back(stuck);
  faults::FaultEvent tia;
  tia.step = 4;
  tia.lane = 8;
  tia.kind = faults::FaultKind::kTiaGainStep;
  tia.magnitude = 1.4;
  tia.bit = 3;
  sched.events.push_back(tia);

  faults::GuardedBackendConfig cfg;
  cfg.path = path;
  faults::GuardedBackend backend(bank, cfg);
  faults::FaultInjector injector(bank, sched);
  backend.attach_storm(&injector, 1);
  *out = backend.matmul(a, b);
  *ev = backend.events();
  *snap = backend.monitor().snapshot();
}

/// Guard-verdict consistency under the same storm on the SIMD tier:
/// detection, mismatch counts and the (closed-form) event charges must be
/// exactly those of the scalar tier.  The tier may change arithmetic, it
/// must never change what the guard sees.
bool storm_verdicts_consistent() {
  Matrix c_k, c_s;
  ptc::EventCounter ev_k, ev_s;
  faults::HealthSnapshot snap_k, snap_s;
  storm_run(ptc::ExecutionPath::kKernel, &c_k, &ev_k, &snap_k);
  storm_run(ptc::ExecutionPath::kKernelSimd, &c_s, &ev_s, &snap_s);
  return events_equal(ev_k, ev_s) && snap_k.detections == snap_s.detections &&
         snap_k.mismatched_tiles == snap_s.mismatched_tiles &&
         cosine(c_s, c_k) >= 1.0 - 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdac;

  const bench::Args args = bench::parse_args(argc, argv, "BENCH_kernel.json", true);
  const bench::DecodeShapes shapes = bench::decode_shapes(args);
  const std::size_t warmup = 1;
  const std::size_t reps = 5;

  std::printf("perf_kernel — fused kernel vs device graph, %s mode\n",
              args.smoke ? "smoke" : "full");
  std::printf("model: d_model=%zu heads=%zu d_ff=%zu context=%zu layers=%zu "
              "(full optics + ADC, threads=1)\n\n",
              shapes.d_model, shapes.heads, shapes.d_ff, shapes.context, shapes.layers);

  const bench::DecodeModel model(shapes, 42);
  nn::OperandCacheConfig cache_cfg;
  cache_cfg.capacity_bytes = 2ull << 30;

  // ---- timed decode: every tier, interleaved -------------------------
  // Each tier keeps its last decode output and the events of one more
  // token decoded with fresh counters; its backend is then released, so
  // the warm operand caches of all tiers are never resident alongside the
  // guarded runs.
  struct TimedTier {
    std::unique_ptr<nn::PhotonicBackend> backend;
    bench::DecodeModel::History kv;
    Matrix out;
    bench::Spread ms;
    ptc::EventCounter events;
  };
  std::vector<TimedTier> timed;
  const auto add_tier = [&](ptc::ExecutionPath path) {
    timed.emplace_back().backend = std::make_unique<nn::PhotonicBackend>(
        core::make_pdac_driver(8), hot_config(path), cache_cfg);
    return timed.size() - 1;
  };
  const std::size_t device = add_tier(ptc::ExecutionPath::kDeviceGraph);
  const std::size_t kernel = add_tier(ptc::ExecutionPath::kKernel);
  const std::size_t simd = add_tier(ptc::ExecutionPath::kKernelSimd);
  const auto ms = bench::sample_round_robin(
      timed.size(), warmup, reps,
      [&](std::size_t c) { timed[c].out = model.run(*timed[c].backend, timed[c].kv); },
      [&](std::size_t c) { timed[c].kv = model.history(); });
  for (std::size_t c = 0; c < timed.size(); ++c) {
    TimedTier& t = timed[c];
    t.ms = bench::spread_of(ms[c]);
    t.backend->reset_events();
    (void)model.run(*t.backend);
    t.events = t.backend->events();
    t.backend.reset();
  }
  const bench::Spread& device_t = timed[device].ms;
  const bench::Spread& kernel_t = timed[kernel].ms;
  const bench::Spread& simd_t = timed[simd].ms;

  // ---- clean decode: device graph vs kernel -------------------------
  const double speedup = kernel_t.median > 0.0 ? device_t.median / kernel_t.median : 0.0;
  const bool clean_identical = bench::bit_identical(timed[kernel].out, timed[device].out) &&
                               events_equal(timed[kernel].events, timed[device].events);

  // ---- SIMD fast tier: tolerance-banded identity + speedup ----------
  const double simd_speedup = simd_t.median > 0.0 ? kernel_t.median / simd_t.median : 0.0;
  const bool simd_events_ok = events_equal(timed[simd].events, timed[kernel].events);
  const bool simd_band_ok = band_identity();
  // Model-accuracy gate: 12 layers of full-optics + ADC decode may
  // straddle single ADC codes differently under the fast tier's
  // reassociation, but those last-bit flips must never compound into a
  // real accuracy change.  Measured cosine is ~1 - 1e-12; the gate
  // leaves six orders of magnitude of headroom.
  const double simd_cosine = cosine(timed[simd].out, timed[kernel].out);
  const bool simd_accuracy_ok = simd_cosine >= 1.0 - 1e-6;

  // ---- ABFT-guarded decode ------------------------------------------
  nn::PhotonicBackend device_guarded(
      core::make_pdac_driver(8),
      nn::guarded_gemm_config({}, hot_config(ptc::ExecutionPath::kDeviceGraph)), cache_cfg);
  nn::PhotonicBackend kernel_guarded(
      core::make_pdac_driver(8),
      nn::guarded_gemm_config({}, hot_config(ptc::ExecutionPath::kKernel)), cache_cfg);
  const Matrix dg_out = model.run(device_guarded);
  const Matrix kg_out = model.run(kernel_guarded);
  const nn::GuardStats* dg = device_guarded.guard_stats();
  const nn::GuardStats* kg = kernel_guarded.guard_stats();
  const bool guarded_identical =
      bench::bit_identical(kg_out, dg_out) &&
      events_equal(kernel_guarded.events(), device_guarded.events()) &&
      dg != nullptr && kg != nullptr && kg->tiles_checked == dg->tiles_checked &&
      kg->mismatched_tiles == dg->mismatched_tiles && kg->worst_residual == dg->worst_residual;

  // SIMD tier under the guard: same tiles checked, same verdict counts —
  // the guard must not see the fast tier as corruption.
  nn::PhotonicBackend simd_guarded(
      core::make_pdac_driver(8),
      nn::guarded_gemm_config({}, hot_config(ptc::ExecutionPath::kKernelSimd)), cache_cfg);
  const Matrix sg_out = model.run(simd_guarded);
  const nn::GuardStats* sg = simd_guarded.guard_stats();
  const bool simd_guard_ok = sg != nullptr && kg != nullptr &&
                             sg->tiles_checked == kg->tiles_checked &&
                             sg->mismatched_tiles == kg->mismatched_tiles &&
                             events_equal(simd_guarded.events(), kernel_guarded.events()) &&
                             cosine(sg_out, kg_out) >= 1.0 - 1e-6;

  // Bytes moved per 8×8 tile step at the model's reduction length.
  const std::size_t bytes_kernel = tier_bytes_per_tile(ptc::ExecutionPath::kKernel, shapes.d_model);
  const std::size_t bytes_simd =
      tier_bytes_per_tile(ptc::ExecutionPath::kKernelSimd, shapes.d_model);

  // ---- fault storm (GuardedBackend, scalar vs SIMD tier) -------------
  const bool simd_storm_ok = storm_verdicts_consistent();

  // Medians of the interleaved samples, with their quartiles.
  const auto print_tier = [](const char* label, const bench::Spread& t, const char* note) {
    std::printf("%-23s %.2f ms [q1 %.2f, q3 %.2f]  (%.2f tok/s)%s\n", label, t.median, t.q1,
                t.q3, 1000.0 / t.median, note);
  };
  const std::string isa_note = std::string("  [isa: ") + simd::active_isa() + "]";
  std::printf("per-token wall time, median of %zu interleaved repetitions:\n", reps);
  print_tier("device graph:", device_t, "");
  print_tier("fused kernel:", kernel_t, "");
  print_tier("SIMD tier:", simd_t, isa_note.c_str());
  std::printf("kernel speedup:         %.2fx (vs device graph)\n", speedup);
  std::printf("SIMD speedup:           %.2fx (vs scalar kernel)\n", simd_speedup);
  std::printf("bytes/tile (k=%zu):     kernel %zu, simd %zu\n", shapes.d_model, bytes_kernel,
              bytes_simd);
  std::printf("bit-identical (clean):  %s\n", clean_identical ? "yes" : "NO");
  std::printf("bit-identical (guard):  %s\n", guarded_identical ? "yes" : "NO");
  std::printf("SIMD within guard band: %s\n", simd_band_ok ? "yes" : "NO");
  std::printf("SIMD events == scalar:  %s\n", simd_events_ok ? "yes" : "NO");
  std::printf("SIMD guard verdicts ==: %s\n", simd_guard_ok ? "yes" : "NO");
  std::printf("SIMD storm verdicts ==: %s\n", simd_storm_ok ? "yes" : "NO");
  std::printf("SIMD decode cosine:     %.12f\n\n", simd_cosine);

  bench::Json json;
  json.field("bench", "kernel").field("mode", args.smoke ? "smoke" : "full");
  json.object("model").field("d_model", shapes.d_model).field("heads", shapes.heads);
  json.field("d_ff", shapes.d_ff).field("context", shapes.context);
  json.field("layers", shapes.layers).end();
  json.object("timing").field("warmup", warmup).field("reps", reps);
  json.field("order", "interleaved").field("statistic", "median").end();
  json.array("tiers");
  const auto emit_tier = [&](const char* path, const bench::Spread& t, std::size_t bytes,
                             bool fast) {
    json.object().field("path", path).field("ms_per_token", t.median);
    json.field("ms_q1", t.q1).field("ms_q3", t.q3).field("ms_spread", t);
    json.field("tokens_per_s", 1000.0 / t.median).field("bytes_per_tile", bytes);
    if (fast) json.field("isa", simd::active_isa());
    json.end();
  };
  emit_tier("device_graph", device_t, bytes_kernel, false);
  emit_tier("kernel", kernel_t, bytes_kernel, false);
  emit_tier("kernel_simd", simd_t, bytes_simd, true);
  json.end();
  json.field("speedup", speedup).field("simd_speedup_vs_scalar", simd_speedup);
  json.field("bit_identical_clean", clean_identical);
  json.field("bit_identical_guarded", guarded_identical);
  json.field("simd_within_guard_band", simd_band_ok).field("simd_events_equal", simd_events_ok);
  json.field("simd_guard_consistent", simd_guard_ok);
  json.field("simd_storm_consistent", simd_storm_ok);
  json.field("simd_decode_cosine", simd_cosine, "%.15f");
  if (!json.write(args.out)) return 1;

  if (!clean_identical || !guarded_identical) {
    std::fprintf(stderr, "FAIL: kernel path diverged from the device-graph/model baseline\n");
    return 1;
  }
  if (!simd_band_ok || !simd_events_ok || !simd_guard_ok || !simd_storm_ok ||
      !simd_accuracy_ok) {
    std::fprintf(stderr,
                 "FAIL: SIMD tier broke its contract (band=%d events=%d guard=%d storm=%d "
                 "cosine=%.12f)\n",
                 simd_band_ok ? 1 : 0, simd_events_ok ? 1 : 0, simd_guard_ok ? 1 : 0,
                 simd_storm_ok ? 1 : 0, simd_cosine);
    return 1;
  }
  // >=3x tokens/s is the acceptance bar at full BERT-base shapes; smoke
  // shapes are too small for a stable ratio and only gate identity.
  if (!args.smoke && speedup < 3.0) {
    std::fprintf(stderr, "FAIL: kernel speedup %.2fx below the 3x acceptance bar\n", speedup);
    return 1;
  }
  // The SIMD tier targets 2x over the scalar kernel on BERT-base decode;
  // the gate is 1.5x so a noisy or narrow-vector CI host cannot flake a
  // genuinely healthy build.
  if (!args.smoke && simd_speedup < 1.5) {
    std::fprintf(stderr, "FAIL: SIMD speedup %.2fx below the 1.5x acceptance bar\n",
                 simd_speedup);
    return 1;
  }
  return 0;
}
