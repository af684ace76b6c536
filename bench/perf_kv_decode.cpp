// perf_kv_decode — incremental KV-prepared attention vs from-scratch
// prepare vs the unprepared baseline on long decode (DESIGN.md §17).
//
// Replays one multi-head attention decode stream to a long context on
// the full-optics + ADC configuration and measures ms/token at
// checkpoint lengths under three execution modes:
//   * incremental — forward_decode(kPrepared) over a PhotonicBackend
//     whose KV-history cache has room: the per-head K/V operands stay
//     resident and every step extends them in place (append_bt_rows /
//     append_b_rows), O(1) prepare work per token;
//   * fresh — the same prepared route with a zero-capacity KV cache, so
//     every step re-prepares the whole history from scratch (the O(t)
//     per-token cost the appends eliminate);
//   * unprepared — forward_decode(kUnprepared): plain backend.matmul
//     with a manually staged Kᵀ, the pre-§17 baseline.
// The trio runs on the scalar kernel and SIMD tiers of the 8-bit P-DAC
// driver, mirroring perf_kernel's tier ladder.
//
// The contract is exactness, so the bench GATES before it brags:
//   * every output row must match bit for bit across all three modes on
//     every tier — bit-identity at EVERY length, not just the last;
//   * cumulative EventCounter must match across modes field for field
//     (preparation removes simulator work, never modeled hardware work);
//   * the incremental run must append, never rebuild (the loud-first-
//     token stream keeps the running max-abs stable by construction);
//   * decode cosine: the SIMD tier's final context row vs the scalar
//     kernel's must stay >= 1 - 1e-6.
// In full mode the incremental path must additionally clear the >=2x
// ms/token bar vs the unprepared baseline at the longest context on
// every tier.
//
// Every tier × mode stream decodes on its own backend.  Each checkpoint
// reads the median of the 5 steps before it, run back to back on one
// stream so its resident operands stay in cache.  Streams take turns per
// checkpoint: each first decodes up to its window untimed, then each in
// turn runs its window, so the compared windows share one host spell.
//
// Writes machine-readable BENCH_kv.json (default: repository root).
//
// Usage (bench/harness.hpp):
//   perf_kv_decode             # full shapes, 2x gate enforced
//   perf_kv_decode --smoke     # tiny shapes, identity gates only
//   perf_kv_decode --out FILE  # JSON destination
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "harness.hpp"

namespace {

using namespace pdac;

/// The decode stream: token 0 is a loud ±1 row and every later token is
/// quiet, so the per-head K/V running max-abs is set at step 0 and never
/// outgrown — the incremental mode's appends are never refused on scale
/// (a rebuild would be correct but is exactly the cost being measured).
Matrix decode_stream(std::size_t context, std::size_t d_model, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(context, d_model);
  for (std::size_t c = 0; c < d_model; ++c) x(0, c) = c % 2 == 0 ? 1.0 : -1.0;
  for (std::size_t t = 1; t < context; ++t) {
    for (std::size_t c = 0; c < d_model; ++c) x(t, c) = 0.2 * rng.gaussian();
  }
  return x;
}

struct TierSpec {
  const char* name;
  ptc::ExecutionPath path;
};

constexpr TierSpec kTierSpecs[] = {
    {"kernel", ptc::ExecutionPath::kKernel},
    {"kernel_simd", ptc::ExecutionPath::kKernelSimd},
};

/// The modes, in the order each tier's streams are laid out.
enum Mode : std::size_t { kIncremental, kFresh, kUnprepared, kModes };

/// One decode of the whole stream on its own backend: incremental and
/// unprepared with room in the KV cache, fresh with none.
struct Stream {
  Stream(const TierSpec& tier, Mode m, const nn::MultiHeadAttention& mha, std::size_t context)
      : mode(m == kUnprepared ? nn::KvDecodeMode::kUnprepared : nn::KvDecodeMode::kPrepared),
        kv(mha.make_kv_state()),
        outs(context, mha.d_model()) {
    nn::OperandCacheConfig cache_cfg;
    cache_cfg.capacity_bytes = 1ull << 30;
    nn::OperandCacheConfig kv_cfg;
    kv_cfg.capacity_bytes = m == kFresh ? 0 : 1ull << 30;
    backend = std::make_unique<nn::PhotonicBackend>(
        core::make_pdac_driver(8), bench::hot_config(tier.path), cache_cfg, kv_cfg);
  }

  nn::KvDecodeMode mode;
  std::unique_ptr<nn::PhotonicBackend> backend;
  nn::AttentionKvState kv;
  Matrix out;   ///< the last step's output
  Matrix outs;  ///< one output row per step
  std::vector<double> ms_per_token;  ///< per checkpoint: median of its window
  std::vector<bench::Spread> spreads;  ///< per checkpoint: the window's spread
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pdac;

  const bench::Args args = bench::parse_args(argc, argv, "BENCH_kv.json");
  const std::size_t d_model = args.smoke ? 32 : 128;
  const std::size_t heads = args.smoke ? 2 : 4;
  const std::vector<std::size_t> checkpoints =
      args.smoke ? std::vector<std::size_t>{8, 24} : std::vector<std::size_t>{64, 256, 1024};
  const std::size_t context = checkpoints.back();
  const std::size_t window = 5;

  std::printf("perf_kv_decode — incremental KV-prepared attention, %s mode\n",
              args.smoke ? "smoke" : "full");
  std::printf("model: d_model=%zu heads=%zu context=%zu (full optics + ADC, threads=1)\n\n",
              d_model, heads, context);

  nn::MultiHeadAttention mha(d_model, heads);
  Rng wrng(42);
  mha.init_random(wrng);
  const Matrix x = decode_stream(context, d_model, 7);

  // Streams tier-major in kModes order.
  std::vector<Stream> streams;
  streams.reserve(std::size(kTierSpecs) * kModes);
  for (const TierSpec& tier : kTierSpecs) {
    for (std::size_t m = 0; m < kModes; ++m) streams.emplace_back(tier, Mode(m), mha, context);
  }

  // A step stages the stream's next token, then decodes it (timed).
  Matrix xt(1, d_model);
  const auto stage = [&](const Stream& st) {
    std::copy(x.row(st.kv.tokens).begin(), x.row(st.kv.tokens).end(), xt.row(0).begin());
  };
  const auto decode = [&](Stream& st) {
    const std::size_t t = st.kv.tokens;
    st.out = mha.forward_decode(xt, *st.backend, st.kv, st.mode);
    std::copy(st.out.row(0).begin(), st.out.row(0).end(), st.outs.row(t).begin());
  };
  for (const std::size_t cp : checkpoints) {
    const std::size_t lo = cp > window ? cp - window : 0;
    for (Stream& st : streams) {
      while (st.kv.tokens < lo) {
        stage(st);
        decode(st);
      }
    }
    for (Stream& st : streams) {
      const auto ms = bench::sample_round_robin(
          1, 0, cp - lo, [&](std::size_t) { decode(st); }, [&](std::size_t) { stage(st); });
      st.spreads.push_back(bench::spread_of(ms[0]));
      st.ms_per_token.push_back(st.spreads.back().median);
    }
  }

  bench::Json json;
  json.field("bench", "kv_decode").field("mode", args.smoke ? "smoke" : "full");
  json.object("model").field("d_model", d_model).field("heads", heads);
  json.field("context", context).end();
  json.object("timing").field("window", window).field("order", "per_window");
  json.field("statistic", "median").end();
  json.list("contexts", checkpoints);
  json.array("tiers");
  bool ok = true;
  for (std::size_t i = 0; i < std::size(kTierSpecs); ++i) {
    const TierSpec& tier = kTierSpecs[i];
    const Stream& inc = streams[kModes * i + kIncremental];
    const Stream& fresh = streams[kModes * i + kFresh];
    const Stream& unprep = streams[kModes * i + kUnprepared];
    // Every output row: bit-identity at EVERY length, not just the last.
    const bool identical = bench::bit_identical(inc.outs, unprep.outs) &&
                           bench::bit_identical(inc.outs, fresh.outs);
    // Preparation removes simulator work, never modeled hardware work.
    const bool events_ok = bench::events_equal(inc.backend->events(), unprep.backend->events()) &&
                           bench::events_equal(inc.backend->events(), fresh.backend->events());
    // 2 handles/head, each: 1 miss then context-1 append-hits, 0 rebuilds.
    const nn::OperandCacheStats& kv = inc.backend->kv_cache()->stats();
    const bool appends_ok = kv.rebuilds == 0 && kv.appends == 2 * heads * (context - 1);
    const double cos = bench::cosine(inc.out, streams[kIncremental].out);
    const double inc_ms = inc.ms_per_token.back();
    const double vs_unprep = inc_ms > 0.0 ? unprep.ms_per_token.back() / inc_ms : 0.0;
    const double vs_fresh = inc_ms > 0.0 ? fresh.ms_per_token.back() / inc_ms : 0.0;

    std::printf("[%s]\n", tier.name);
    for (std::size_t c = 0; c < checkpoints.size(); ++c) {
      std::printf("  ctx %4zu: incremental %8.3f ms/tok   fresh %8.3f   unprepared %8.3f\n",
                  checkpoints[c], inc.ms_per_token[c], fresh.ms_per_token[c],
                  unprep.ms_per_token[c]);
    }
    std::printf("  speedup @%zu: %.2fx vs unprepared, %.2fx vs fresh-prepare\n", context,
                vs_unprep, vs_fresh);
    std::printf("  bit-identical: %s  events equal: %s  appends clean: %s  cosine: %.9f\n\n",
                identical ? "yes" : "NO", events_ok ? "yes" : "NO", appends_ok ? "yes" : "NO",
                cos);

    json.object().field("path", tier.name);
    json.field("driver", "pdac");
    const std::pair<const char*, const Stream*> series[] = {
        {"incremental", &inc}, {"fresh", &fresh}, {"unprepared", &unprep}};
    for (const auto& [name, st] : series) {
      json.list((std::string(name) + "_ms_per_token").c_str(), st->ms_per_token);
      json.array((std::string(name) + "_ms_spread").c_str());
      for (const bench::Spread& sp : st->spreads) json.field(nullptr, sp);
      json.end();
    }
    json.field("speedup_vs_unprepared", vs_unprep).field("speedup_vs_fresh", vs_fresh);
    json.field("bit_identical", identical).field("events_equal", events_ok);
    json.field("kv_appends", kv.appends).field("kv_rebuilds", kv.rebuilds);
    json.field("decode_cosine", cos, "%.12f").end();

    if (!identical || !events_ok || !appends_ok) {
      std::fprintf(stderr, "FAIL: %s broke the identity contract (bits=%d events=%d appends=%d)\n",
                   tier.name, identical ? 1 : 0, events_ok ? 1 : 0, appends_ok ? 1 : 0);
      ok = false;
    }
    if (cos < 1.0 - 1e-6) {
      std::fprintf(stderr, "FAIL: %s decode cosine %.12f below 1 - 1e-6\n", tier.name, cos);
      ok = false;
    }
    // >=2x at the longest context is the acceptance bar; smoke shapes
    // are too short for the prepare cost to dominate and gate identity only.
    if (!args.smoke && vs_unprep < 2.0) {
      std::fprintf(stderr, "FAIL: %s incremental speedup %.2fx below the 2x bar\n", tier.name,
                   vs_unprep);
      ok = false;
    }
  }
  json.end();
  json.field("isa", simd::active_isa());
  for (Stream& st : streams) nn::MultiHeadAttention::release_kv_state(st.kv, *st.backend);
  if (!json.write(args.out)) return 1;
  return ok ? 0 : 1;
}
