// perf_weight_cache — cold vs warm per-token decode latency under the
// weight-stationary operand cache (DESIGN.md §10).
//
// Replays BERT-base KV-cache decode (bench::DecodeModel): per token every
// weight GEMM is a GEMV (m = 1) against a *static* weight matrix, plus
// the per-head score/context products against the KV history
// (activation×activation, never cached).  A cold token prepares every
// weight's encoding from scratch (the cache is cleared first); a warm
// token reuses the prepared operands.  The two are timed round-robin
// after one warmup round, and each reports its median; the ratio is the
// prepare-once/run-many payoff the cache buys decode loops and accuracy
// sweeps.
//
// Verifies bit-identity three ways — warm token == cold token ==
// cache-disabled backend — then writes machine-readable
// BENCH_weight_cache.json (default: the repository root).
//
// Usage (bench/harness.hpp):
//   perf_weight_cache             # BERT-base, 12 layers, context 128
//   perf_weight_cache --smoke     # tiny shapes for CI smoke coverage
//   perf_weight_cache --layers N  # override the layer count
//   perf_weight_cache --out FILE  # JSON destination
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace pdac;

  const bench::Args args = bench::parse_args(argc, argv, "BENCH_weight_cache.json", true);
  const bench::DecodeShapes shapes = bench::decode_shapes(args);
  const std::size_t warmup = 1;
  const std::size_t reps = 5;

  std::printf("perf_weight_cache — weight-stationary decode, %s mode\n",
              args.smoke ? "smoke" : "full");
  std::printf("model: d_model=%zu heads=%zu d_ff=%zu context=%zu layers=%zu\n\n",
              shapes.d_model, shapes.heads, shapes.d_ff, shapes.context, shapes.layers);

  const bench::DecodeModel model(shapes, 42);

  // Cache sized to hold every weight of the model (prepared operands are
  // the same element count as the weights, stored as doubles).
  nn::OperandCacheConfig cache_cfg;
  cache_cfg.capacity_bytes = 2ull << 30;
  nn::PhotonicBackend backend(core::make_pdac_driver(8), ptc::GemmConfig{}, cache_cfg);

  // Candidate 0 (cold) starts every token from an empty cache — the
  // per-token cost of re-preparing every weight, which is what the
  // engine paid before the cache existed.  Candidate 1 (warm) runs right
  // after it on the same backend, so its operands are resident.
  const std::size_t kCold = 0, kWarm = 1;
  Matrix out[2];
  bench::DecodeModel::History kv[2];
  const auto ms = bench::sample_round_robin(
      2, warmup, reps, [&](std::size_t c) { out[c] = model.run(backend, kv[c]); },
      [&](std::size_t c) {
        if (c == kCold) backend.cache().clear();
        kv[c] = model.history();
      });
  const bench::Spread cold = bench::spread_of(ms[kCold]);
  const bench::Spread warm = bench::spread_of(ms[kWarm]);
  const double speedup = warm.median > 0.0 ? cold.median / warm.median : 0.0;

  // Bit-identity: warm == cold == a backend that never caches.
  nn::OperandCacheConfig no_cache;
  no_cache.capacity_bytes = 0;
  nn::PhotonicBackend uncached(core::make_pdac_driver(8), ptc::GemmConfig{}, no_cache);
  const bool identical = bench::bit_identical(out[kWarm], out[kCold]) &&
                         bench::bit_identical(out[kWarm], model.run(uncached));

  const nn::OperandCacheStats& cs = backend.operand_cache()->stats();
  eval::OperandCacheSummary summary;
  summary.hits = cs.hits;
  summary.misses = cs.misses;
  summary.evictions = cs.evictions;
  summary.invalidations = cs.invalidations;
  summary.oversized_rejects = cs.oversized_rejects;
  summary.resident_bytes = cs.resident_bytes;
  summary.capacity_bytes = backend.operand_cache()->config().capacity_bytes;
  summary.entries = cs.entries;
  std::printf("%s\n", eval::render_operand_cache("operand cache (whole run)", summary).c_str());

  std::printf("per-token wall time, median of %zu interleaved repetitions:\n", reps);
  std::printf("cold per-token: %.2f ms [q1 %.2f, q3 %.2f]\n", cold.median, cold.q1, cold.q3);
  std::printf("warm per-token: %.2f ms [q1 %.2f, q3 %.2f]\n", warm.median, warm.q1, warm.q3);
  std::printf("warm speedup:   %.2fx\n", speedup);
  std::printf("bit-identical (warm == cold == uncached): %s\n\n", identical ? "yes" : "NO");

  bench::Json json;
  json.field("bench", "weight_cache").field("mode", args.smoke ? "smoke" : "full");
  json.object("model").field("d_model", shapes.d_model).field("heads", shapes.heads);
  json.field("d_ff", shapes.d_ff).field("context", shapes.context);
  json.field("layers", shapes.layers).end();
  json.object("timing").field("warmup", warmup).field("reps", reps);
  json.field("order", "interleaved").field("statistic", "median").end();
  json.field("cold_ms_per_token", cold.median).field("cold_ms_spread", cold);
  json.field("warm_ms_per_token", warm.median).field("warm_ms_spread", warm);
  json.field("warm_speedup", speedup).field("bit_identical", identical);
  json.object("cache").field("hits", cs.hits).field("misses", cs.misses);
  json.field("evictions", cs.evictions).field("invalidations", cs.invalidations);
  json.field("oversized_rejects", cs.oversized_rejects);
  json.field("resident_bytes", cs.resident_bytes).field("entries", cs.entries).end();
  if (!json.write(args.out)) return 1;

  if (!identical) {
    std::fprintf(stderr, "FAIL: cached decode diverged from the uncached baseline\n");
    return 1;
  }
  // ≥3× warm speedup is the acceptance bar at full BERT-base shapes;
  // smoke shapes are too small for a stable ratio and only gate identity.
  if (!args.smoke && speedup < 3.0) {
    std::fprintf(stderr, "FAIL: warm speedup %.2fx below the 3x acceptance bar\n", speedup);
    return 1;
  }
  return 0;
}
