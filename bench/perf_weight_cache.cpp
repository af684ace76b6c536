// perf_weight_cache — cold vs warm per-token decode latency under the
// weight-stationary operand cache (DESIGN.md §10).
//
// Replays BERT-base KV-cache decode: per token every weight GEMM is a
// GEMV (m = 1) against a *static* weight matrix, plus the per-head
// score/context products against the KV cache (activation×activation,
// never cached).  A cold token prepares every weight's encoding from
// scratch (the cache is cleared first); a warm token reuses the
// prepared operands.  The ratio is the prepare-once/run-many payoff the
// cache buys decode loops and accuracy sweeps.
//
// Verifies bit-identity three ways — warm token == cold token ==
// cache-disabled backend — then writes machine-readable
// BENCH_weight_cache.json (default: the repository root, so the perf
// trajectory is tracked across builds).
//
// Usage:
//   perf_weight_cache             # BERT-base, 12 layers, context 128
//   perf_weight_cache --smoke     # tiny shapes for CI smoke coverage
//   perf_weight_cache --layers N  # override the layer count
//   perf_weight_cache --out FILE  # JSON destination
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "eval/report.hpp"
#include "nn/backend.hpp"
#include "nn/linear.hpp"
#include "nn/ops.hpp"

#ifndef PDAC_REPO_ROOT
#define PDAC_REPO_ROOT "."
#endif

namespace {

using namespace pdac;

struct DecodeShapes {
  std::size_t d_model, heads, d_ff, context;
  [[nodiscard]] std::size_t d_head() const { return d_model / heads; }
};

/// One transformer layer's static weights plus its (fixed, pre-sliced)
/// KV cache for the benchmark.
struct DecodeLayer {
  nn::Linear q, k, v, o, up, down;
  std::vector<Matrix> kh_t;  ///< per head: (d_head × context), already Kᵀ
  std::vector<Matrix> vh;    ///< per head: (context × d_head)

  DecodeLayer(const DecodeShapes& s, Rng& rng)
      : q(s.d_model, s.d_model),
        k(s.d_model, s.d_model),
        v(s.d_model, s.d_model),
        o(s.d_model, s.d_model),
        up(s.d_model, s.d_ff),
        down(s.d_ff, s.d_model) {
    q.init_random(rng);
    k.init_random(rng);
    v.init_random(rng);
    o.init_random(rng);
    up.init_random(rng);
    down.init_random(rng);
    for (std::size_t h = 0; h < s.heads; ++h) {
      kh_t.push_back(Matrix::random_gaussian(s.d_head(), s.context, rng, 0.0, 0.5));
      vh.push_back(Matrix::random_gaussian(s.context, s.d_head(), rng, 0.0, 0.5));
    }
  }
};

Matrix head_slice(const Matrix& m, std::size_t h, std::size_t dh) {
  Matrix out(m.rows(), dh);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < dh; ++c) out(r, c) = m(r, h * dh + c);
  }
  return out;
}

/// One decode step (m = 1) through every layer: weight GEMVs route
/// through the backend's operand cache via Linear::forward, the KV
/// score/context products stay on the uncached matmul path.
Matrix decode_token(const Matrix& x0, const std::vector<DecodeLayer>& layers,
                    const DecodeShapes& s, nn::GemmBackend& backend) {
  Matrix x = x0;
  const std::size_t dh = s.d_head();
  for (const DecodeLayer& layer : layers) {
    const Matrix q = layer.q.forward(x, backend);
    (void)layer.k.forward(x, backend);  // appends to the KV cache in a real server
    (void)layer.v.forward(x, backend);

    Matrix context(1, s.d_model);
    for (std::size_t h = 0; h < s.heads; ++h) {
      const Matrix qh = head_slice(q, h, dh);
      Matrix scores = backend.matmul(qh, layer.kh_t[h]);
      nn::scale_inplace(scores, 1.0 / std::sqrt(static_cast<double>(dh)));
      nn::softmax_rows(scores);
      const Matrix ctx_h = backend.matmul(scores, layer.vh[h]);
      for (std::size_t c = 0; c < dh; ++c) context(0, h * dh + c) = ctx_h(0, c);
    }
    x = layer.o.forward(context, backend);

    Matrix hidden = layer.up.forward(x, backend);
    nn::gelu(hidden);
    x = layer.down.forward(hidden, backend);
  }
  return x;
}

double time_token(const Matrix& x0, const std::vector<DecodeLayer>& layers,
                  const DecodeShapes& s, nn::GemmBackend& backend, Matrix* out) {
  const auto t0 = std::chrono::steady_clock::now();
  *out = decode_token(x0, layers, s, backend);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

bool bit_identical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdac;

  bool smoke = false;
  std::size_t layer_override = 0;
  std::string out_path = std::string(PDAC_REPO_ROOT) + "/BENCH_weight_cache.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--layers") == 0 && i + 1 < argc) {
      layer_override = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    }
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  // BERT-base decode shapes (d=768, h=12, ff=3072), KV context 128; the
  // smoke mode shrinks everything so CI exercises the same code path in
  // milliseconds.
  const DecodeShapes shapes = smoke ? DecodeShapes{64, 4, 256, 16}
                                    : DecodeShapes{768, 12, 3072, 128};
  const std::size_t n_layers = layer_override != 0 ? layer_override : (smoke ? 2 : 12);
  const std::size_t cold_iters = 3;
  const std::size_t warm_iters = smoke ? 4 : 6;

  std::printf("perf_weight_cache — weight-stationary decode, %s mode\n",
              smoke ? "smoke" : "full");
  std::printf("model: d_model=%zu heads=%zu d_ff=%zu context=%zu layers=%zu\n\n",
              shapes.d_model, shapes.heads, shapes.d_ff, shapes.context, n_layers);

  Rng rng(42);
  std::vector<DecodeLayer> layers;
  layers.reserve(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) layers.emplace_back(shapes, rng);
  const Matrix x0 = Matrix::random_gaussian(1, shapes.d_model, rng, 0.0, 0.5);

  // Cache sized to hold every weight of the model (prepared operands are
  // the same element count as the weights, stored as doubles).
  nn::OperandCacheConfig cache_cfg;
  cache_cfg.capacity_bytes = 2ull << 30;
  nn::PhotonicBackend backend(core::make_pdac_driver(8), ptc::GemmConfig{}, cache_cfg);

  // Cold: every token starts from an empty cache — the per-token cost of
  // re-preparing every weight, which is what the engine paid before the
  // cache existed.
  Matrix cold_out;
  double cold_ms = 0.0;
  for (std::size_t i = 0; i < cold_iters; ++i) {
    backend.cache().clear();
    Matrix out;
    const double ms = time_token(x0, layers, shapes, backend, &out);
    cold_ms = i == 0 ? ms : std::min(cold_ms, ms);
    cold_out = std::move(out);
  }

  // Warm: prepared operands resident; steady-state decode.
  Matrix warm_out;
  double warm_ms = 0.0;
  (void)decode_token(x0, layers, shapes, backend);  // fill the cache
  for (std::size_t i = 0; i < warm_iters; ++i) {
    Matrix out;
    const double ms = time_token(x0, layers, shapes, backend, &out);
    warm_ms = i == 0 ? ms : std::min(warm_ms, ms);
    warm_out = std::move(out);
  }
  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;

  // Bit-identity: warm == cold == a backend that never caches.
  nn::OperandCacheConfig no_cache;
  no_cache.capacity_bytes = 0;
  nn::PhotonicBackend uncached(core::make_pdac_driver(8), ptc::GemmConfig{}, no_cache);
  const Matrix uncached_out = decode_token(x0, layers, shapes, uncached);
  const bool identical =
      bit_identical(warm_out, cold_out) && bit_identical(warm_out, uncached_out);

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

  std::printf("cold per-token: %.2f ms\n", cold_ms);
  std::printf("warm per-token: %.2f ms\n", warm_ms);
  std::printf("warm speedup:   %.2fx\n", speedup);
  std::printf("bit-identical (warm == cold == uncached): %s\n\n", identical ? "yes" : "NO");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"weight_cache\",\n  \"mode\": \"%s\",\n",
               smoke ? "smoke" : "full");
  std::fprintf(f, "  \"model\": {\"d_model\": %zu, \"heads\": %zu, \"d_ff\": %zu, "
               "\"context\": %zu, \"layers\": %zu},\n",
               shapes.d_model, shapes.heads, shapes.d_ff, shapes.context, n_layers);
  std::fprintf(f, "  \"cold_ms_per_token\": %.3f,\n  \"warm_ms_per_token\": %.3f,\n",
               cold_ms, warm_ms);
  std::fprintf(f, "  \"warm_speedup\": %.3f,\n  \"bit_identical\": %s,\n", speedup,
               identical ? "true" : "false");
  std::fprintf(f,
               "  \"cache\": {\"hits\": %llu, \"misses\": %llu, \"evictions\": %llu, "
               "\"invalidations\": %llu, \"oversized_rejects\": %llu, "
               "\"resident_bytes\": %llu, \"entries\": %llu}\n}\n",
               static_cast<unsigned long long>(cs.hits),
               static_cast<unsigned long long>(cs.misses),
               static_cast<unsigned long long>(cs.evictions),
               static_cast<unsigned long long>(cs.invalidations),
               static_cast<unsigned long long>(cs.oversized_rejects),
               static_cast<unsigned long long>(cs.resident_bytes),
               static_cast<unsigned long long>(cs.entries));
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr, "FAIL: cached decode diverged from the uncached baseline\n");
    return 1;
  }
  // ≥3× warm speedup is the acceptance bar at full BERT-base shapes;
  // smoke shapes are too small for a stable ratio and only gate identity.
  if (!smoke && speedup < 3.0) {
    std::fprintf(stderr, "FAIL: warm speedup %.2fx below the 3x acceptance bar\n", speedup);
    return 1;
  }
  return 0;
}
