// decode.cpp — the two decode workloads: a pre-norm transformer decoded
// one token at a time through nn::layer_norm, MultiHeadAttention::
// forward_decode, Linear::forward and nn::gelu on a PhotonicBackend.
//
// A run decodes whole passes: each pass is one sequence of
// `pass_tokens` seeded token embeddings decoded from an empty KV state.
// Every pass does the same work, so the simulated metrics are those of
// one pass and every later pass must repeat its outputs and events bit
// for bit.  Passes repeat until the run's seconds are spent.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "common/simd.hpp"
#include "core/modulator_driver.hpp"
#include "nn/attention.hpp"
#include "nn/backend.hpp"
#include "nn/linear.hpp"
#include "nn/ops.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pdac::Matrix;
namespace nn = pdac::nn;
namespace ptc = pdac::ptc;

struct DecodeSpec {
  const char* name;
  std::size_t d_model, heads, d_ff, layers;
  std::size_t pass_tokens;  ///< tokens per pass (one sequence)
  std::size_t threads;      ///< GemmConfig::threads
  /// decode_cosine must reach this.  The floors sit well below the
  /// measured values (~0.62 and ~0.92): 8-bit ADC readout with its full
  /// scale at the reduction length costs most of the accuracy (without
  /// readout both workloads reach ~0.99), so the floor catches broken
  /// numerics, not the model's known quantization loss.
  double cosine_floor;
};

// decode_bert_base — BERT-base shapes.  Weight-stationary GEMMs carry
// over 99 % of the MACs and every token streams ~0.7 GB of prepared
// weights, so the load falls on the ptc kernel and nn::OperandCache; the
// KV path does almost nothing.  One tile worker: with two, the run-to-run
// spread of tok_s on a shared 4-vCPU host doubled (±11 % against ±5 %).
constexpr DecodeSpec kBertBase{"decode_bert_base", 768, 12, 3072, 12, 16, 1, 0.5};

// decode_long_context — a narrow model decoded far enough that the
// matmul_kv score and context products carry most of the simulated MACs
// while one sequence's prepared K/V stays under the KV cache's default
// 64 MiB.  The load falls on nn::KvPreparedCache appends and on
// attention work that grows with context: the opposite mix.
constexpr DecodeSpec kLongContext{"decode_long_context", 128, 4, 512, 4, 2048, 1, 0.85};

/// Operand cache large enough for all of BERT-base's 72 prepared weights.
constexpr std::size_t kOperandCacheBytes = 4ull << 30;

struct Layer {
  std::vector<double> ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;
  nn::MultiHeadAttention attn;
  nn::Linear up, down;

  explicit Layer(const DecodeSpec& s)
      : attn(s.d_model, s.heads), up(s.d_model, s.d_ff), down(s.d_ff, s.d_model) {}
};

struct Model {
  std::vector<Layer> layers;
  Matrix embeddings;  ///< pass_tokens × d_model
};

/// Xavier-uniform weights and small biases, written through
/// Linear::weight()/bias() so the layer's version stamp moves with them.
void fill_linear(nn::Linear& lin, InputRng& rng) {
  Matrix& w = lin.weight();
  const double bound = std::sqrt(6.0 / static_cast<double>(w.rows() + w.cols()));
  for (double& v : w.data()) v = rng.uniform(-bound, bound);
  for (double& b : lin.bias()) b = rng.uniform(-0.01, 0.01);
}

void fill_norm(std::vector<double>& gamma, std::vector<double>& beta, std::size_t d,
               InputRng& rng) {
  gamma.resize(d);
  beta.resize(d);
  for (double& g : gamma) g = 1.0 + rng.uniform(-0.1, 0.1);
  for (double& b : beta) b = rng.uniform(-0.05, 0.05);
}

std::unique_ptr<Model> make_model(const DecodeSpec& s, std::uint64_t seed) {
  auto m = std::make_unique<Model>();
  InputRng wrng(stream_seed(seed, 1));
  m->layers.reserve(s.layers);  // no reallocation: Linear ids must stay put
  for (std::size_t l = 0; l < s.layers; ++l) {
    Layer& layer = m->layers.emplace_back(s);
    fill_norm(layer.ln1_gamma, layer.ln1_beta, s.d_model, wrng);
    fill_norm(layer.ln2_gamma, layer.ln2_beta, s.d_model, wrng);
    fill_linear(layer.attn.q_proj(), wrng);
    fill_linear(layer.attn.k_proj(), wrng);
    fill_linear(layer.attn.v_proj(), wrng);
    fill_linear(layer.attn.o_proj(), wrng);
    fill_linear(layer.up, wrng);
    fill_linear(layer.down, wrng);
  }
  InputRng erng(stream_seed(seed, 2));
  m->embeddings = Matrix(s.pass_tokens, s.d_model);
  for (double& v : m->embeddings.data()) v = erng.gaussian();
  return m;
}

/// Span ids of the decode loop (all zero and unused when untraced).
struct LoopSpans {
  std::uint32_t token{0}, layer_norm{0}, attention{0}, residual{0}, gelu{0}, up{0}, down{0};
};

LoopSpans intern_loop_spans(SpanRecorder& rec) {
  return {rec.intern("token"),           rec.intern("ops.layer_norm"),
          rec.intern("attention.forward_decode"), rec.intern("ops.residual"),
          rec.intern("ops.gelu"),        rec.intern("linear.ffn_up"),
          rec.intern("linear.ffn_down")};
}

/// One token through every layer: pre-norm attention and FFN blocks
/// with residual adds.  `rec` (nullable) records the loop's spans.
Matrix decode_token(const Model& m, const Matrix& x0, nn::GemmBackend& be,
                    std::vector<nn::AttentionKvState>& kv, SpanRecorder* rec,
                    const LoopSpans& ids) {
  Matrix x = x0;
  for (std::size_t l = 0; l < m.layers.size(); ++l) {
    const Layer& layer = m.layers[l];
    Matrix h;
    {
      ScopedSpan s(rec, ids.layer_norm);
      h = x;
      nn::layer_norm(h, layer.ln1_gamma, layer.ln1_beta);
    }
    Matrix a;
    {
      ScopedSpan s(rec, ids.attention);
      a = layer.attn.forward_decode(h, be, kv[l]);
    }
    {
      ScopedSpan s(rec, ids.residual);
      nn::add_inplace(x, a);
    }
    {
      ScopedSpan s(rec, ids.layer_norm);
      h = x;
      nn::layer_norm(h, layer.ln2_gamma, layer.ln2_beta);
    }
    Matrix u;
    {
      ScopedSpan s(rec, ids.up);
      u = layer.up.forward(h, be);
    }
    {
      ScopedSpan s(rec, ids.gelu);
      nn::gelu(u);
    }
    Matrix d;
    {
      ScopedSpan s(rec, ids.down);
      d = layer.down.forward(u, be);
    }
    {
      ScopedSpan s(rec, ids.residual);
      nn::add_inplace(x, d);
    }
  }
  return x;
}

struct Pass {
  Matrix out;                     ///< one row per token
  std::vector<double> token_ms;   ///< host time per token
  double wall_s{0.0};             ///< host time of the tokens, calibration left out
  ptc::EventCounter events;       ///< simulated events of the pass
  std::uint64_t kv_resident_bytes{0};  ///< KV residency at the pass's last token
};

bool same_events(const ptc::EventCounter& a, const ptc::EventCounter& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)) == 0;
}

/// Decode one sequence from an empty KV state.  `be` runs the products
/// (the inner backend or a TracingBackend around it); events and cache
/// residency are read from `inner`.  `speed` (nullable) calibrates between
/// tokens, outside the token times and the pass time.
Pass run_pass(const Model& m, nn::GemmBackend& be, nn::GemmBackend& inner,
              SpanRecorder* rec, const LoopSpans& ids, std::uint32_t token_base,
              HostSpeed* speed) {
  const std::size_t tokens = m.embeddings.rows();
  Pass p;
  p.out = Matrix(tokens, m.embeddings.cols());
  p.token_ms.reserve(tokens);
  std::vector<nn::AttentionKvState> kv;
  kv.reserve(m.layers.size());
  for (const Layer& layer : m.layers) kv.push_back(layer.attn.make_kv_state());

  inner.reset_events();
  Matrix x0(1, m.embeddings.cols());
  const std::int64_t pass0 = now_ns();
  double calibration_s = 0.0;
  for (std::size_t t = 0; t < tokens; ++t) {
    std::copy(m.embeddings.row(t).begin(), m.embeddings.row(t).end(), x0.row(0).begin());
    if (rec != nullptr) rec->set_token(token_base + static_cast<std::uint32_t>(t));
    const std::int64_t t0 = now_ns();
    Matrix y;
    {
      ScopedSpan s(rec, ids.token);
      y = decode_token(m, x0, be, kv, rec, ids);
    }
    p.token_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    std::copy(y.row(0).begin(), y.row(0).end(), p.out.row(t).begin());
    if (speed != nullptr) calibration_s += speed->pace(p.token_ms.back() * 1e-3);
  }
  p.wall_s = static_cast<double>(now_ns() - pass0) * 1e-9 - calibration_s;
  p.events = inner.events();
  if (const nn::KvPreparedCache* c = inner.kv_cache(); c != nullptr) {
    p.kv_resident_bytes = c->stats().resident_bytes;
  }
  for (const nn::AttentionKvState& state : kv) nn::MultiHeadAttention::release_kv_state(state, be);
  return p;
}

double cosine(const Matrix& a, const Matrix& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a.data()[i] * b.data()[i];
    na += a.data()[i] * a.data()[i];
    nb += b.data()[i] * b.data()[i];
  }
  return na > 0.0 && nb > 0.0 ? dot / std::sqrt(na * nb) : 0.0;
}

std::size_t nonfinite_rows(const Matrix& m) {
  std::size_t n = 0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (const double v : m.row(r)) {
      if (!std::isfinite(v)) {
        ++n;
        break;
      }
    }
  }
  return n;
}

struct Setup {
  std::unique_ptr<Model> model;
  std::unique_ptr<nn::PhotonicBackend> backend;
  ptc::GemmConfig cfg;
};

/// Inputs, model, backend, and the warm-up token: the first token of a
/// throwaway sequence, run against a cold operand cache.
Setup build(const DecodeSpec& s, std::uint64_t seed) {
  Setup st;
  st.model = make_model(s, seed);
  auto driver = pdac::core::make_pdac_driver(8);
  ptc::GemmConfig cfg;
  cfg.dot.use_full_optics = true;
  cfg.dot.adc_readout = true;
  cfg.threads = s.threads;
  st.cfg = nn::fastest_gemm_config(*driver, cfg);
  nn::OperandCacheConfig cache;
  cache.capacity_bytes = kOperandCacheBytes;
  st.backend = std::make_unique<nn::PhotonicBackend>(std::move(driver), st.cfg, cache);

  std::vector<nn::AttentionKvState> kv;
  for (const Layer& layer : st.model->layers) kv.push_back(layer.attn.make_kv_state());
  Matrix x0(1, s.d_model);
  std::copy(st.model->embeddings.row(0).begin(), st.model->embeddings.row(0).end(),
            x0.row(0).begin());
  (void)decode_token(*st.model, x0, *st.backend, kv, nullptr, LoopSpans{});
  for (const nn::AttentionKvState& state : kv) {
    nn::MultiHeadAttention::release_kv_state(state, *st.backend);
  }
  return st;
}

int run_decode(const DecodeSpec& s, const Args& args, Report& rep) {
  // Calibrated between set-up repetitions and, in the timed region,
  // between the untraced passes' tokens.
  HostSpeed speed;
  Setup st;
  const double raw_setup_s = median_setup_s(
      [&] {
        st = Setup{};  // free the previous build before making the next
        st = build(s, args.seed);
      },
      &speed, 3, 100, 1.0);
  nn::PhotonicBackend& inner = *st.backend;
  const Model& model = *st.model;

  rep.note(std::string("workload ") + s.name + ": d_model " + std::to_string(s.d_model) +
           ", heads " + std::to_string(s.heads) + ", d_ff " + std::to_string(s.d_ff) +
           ", layers " + std::to_string(s.layers) + ", " + std::to_string(s.pass_tokens) +
           " tokens per pass");
  rep.note(std::string("host: path ") + path_name(st.cfg.path) + ", isa " +
           pdac::simd::active_isa() + ", tile workers " + std::to_string(st.cfg.threads));

  SpanRecorder rec;
  TracingBackend traced(inner, rec, element_bytes(st.cfg.path));
  for (Layer& layer : st.model->layers) {
    traced.add_weight_role(layer.attn.q_proj().weight_handle().id, "q");
    traced.add_weight_role(layer.attn.k_proj().weight_handle().id, "k");
    traced.add_weight_role(layer.attn.v_proj().weight_handle().id, "v");
    traced.add_weight_role(layer.attn.o_proj().weight_handle().id, "o");
    traced.add_weight_role(layer.up.weight_handle().id, "ffn_up");
    traced.add_weight_role(layer.down.weight_handle().id, "ffn_down");
  }
  const LoopSpans ids = intern_loop_spans(rec);

  const nn::OperandCacheStats oc0 = inner.operand_cache()->stats();
  const nn::KvPreparedCacheStats kc0 = inner.kv_cache()->stats();

  // Timed region: whole passes while another fits in the seconds.  A
  // traced run alternates untraced and traced passes, so the tracing
  // overhead is measured under the same conditions as the spans.
  std::vector<Pass> plain, with_spans;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  std::uint32_t token_base = 0;
  for (std::size_t i = 0;; ++i) {
    const std::int64_t t0 = now_ns();
    if (args.trace && i % 2 == 1) {
      with_spans.push_back(run_pass(model, traced, inner, &rec, ids, token_base, nullptr));
      token_base += static_cast<std::uint32_t>(s.pass_tokens);
    } else {
      plain.push_back(run_pass(model, inner, inner, nullptr, ids, 0, &speed));
    }
    const std::int64_t now = now_ns();
    const bool another_fits = now + (now - t0) <= start + budget;
    if (!another_fits && (!args.trace || !with_spans.empty())) break;
  }
  const nn::OperandCacheStats oc1 = inner.operand_cache()->stats();
  const nn::KvPreparedCacheStats kc1 = inner.kv_cache()->stats();

  // Checks: every pass repeats pass 0 bit for bit, traced or not.
  const Pass& first = plain.front();
  std::size_t diverged = 0;
  for (const std::vector<Pass>* set : {&plain, &with_spans}) {
    for (const Pass& p : *set) {
      if (!same_bits(p.out, first.out) || !same_events(p.events, first.events)) ++diverged;
    }
  }
  if (diverged > 0) rep.fail(std::to_string(diverged) + " passes diverged from the first pass");

  // Accuracy against the double-precision reference, outside the timed region.
  nn::ReferenceBackend reference;
  const Pass ref = run_pass(model, reference, reference, nullptr, ids, 0, nullptr);
  const double cos = cosine(first.out, ref.out);
  if (!(cos >= s.cosine_floor)) {
    rep.fail("decode_cosine " + fmt(cos) + " below floor " + fmt(s.cosine_floor));
  }

  const std::uint64_t oc_hits = oc1.hits - oc0.hits;
  const std::uint64_t oc_lookups = oc_hits + (oc1.misses - oc0.misses);
  const double oc_hit_ratio =
      oc_lookups > 0 ? static_cast<double>(oc_hits) / static_cast<double>(oc_lookups) : 0.0;
  if (oc_hit_ratio != 1.0) {
    rep.fail("operand cache hit ratio after warm-up is " + fmt(oc_hit_ratio));
  }
  if (kc1.evictions != 0) {
    rep.fail(std::to_string(kc1.evictions) + " KV-cache evictions: the run measures a cache cliff");
  }

  const std::size_t passes = plain.size() + with_spans.size();
  const std::size_t tokens_per_pass = s.pass_tokens;
  std::size_t bad_rows = 0;
  for (const std::vector<Pass>* set : {&plain, &with_spans}) {
    for (const Pass& p : *set) bad_rows += nonfinite_rows(p.out);
  }
  rep.count_attempts(passes * tokens_per_pass, bad_rows);

  // End-to-end metrics, from the untraced passes only, with host times at
  // the reference speed.  Throughput is over all of them: on a shared
  // host, slow spells last tens of seconds, and the mean over a long run
  // averages them where a median would snap to whichever spell held most
  // of the run.
  const double slowdown = speed.slowdown();
  std::vector<double> token_ms;
  double plain_s = 0.0;
  for (const Pass& p : plain) {
    for (const double ms : p.token_ms) token_ms.push_back(ms / slowdown);
    plain_s += p.wall_s;
  }
  const double raw_pass_s = plain_s / static_cast<double>(plain.size());
  const double mean_pass_s = speed.at_reference(raw_pass_s);
  const double tok_s = static_cast<double>(tokens_per_pass) / mean_pass_s;
  const TailPercentile tail = tail_percentile(token_ms);
  const double n = static_cast<double>(tokens_per_pass);
  const ptc::EventCounter& ev = first.events;
  const double uj_pdac = price_uj(ev, true);
  const double uj_dac = price_uj(ev, false);

  rep.add("tok_s", "tokens/s", tok_s);
  rep.add("host.tok_s_unscaled", "tokens/s", static_cast<double>(tokens_per_pass) / raw_pass_s);
  rep.add("host.slowdown", "1", slowdown);
  rep.add("token_ms_p50", "ms", median(token_ms));
  rep.add("token_ms_tail", "ms", tail.value);
  rep.note("token_ms_tail is p" + fmt(tail.percentile) + " over " +
           std::to_string(tail.samples) + " tokens (" + std::to_string(plain.size()) +
           " untraced passes)");
  rep.add("setup_s", "s", speed.at_reference(raw_setup_s));
  rep.add("host.setup_s_unscaled", "s", raw_setup_s);
  rep.add("peak_rss_mb", "MiB", peak_rss_mb());
  rep.add("sim_uj_per_token", "uJ", uj_pdac / n);
  rep.add("sim_cycles_per_token", "cycles", static_cast<double>(ev.cycles) / n);
  rep.add("pdac_saving", "fraction", 1.0 - uj_pdac / uj_dac);
  rep.add("decode_cosine", "1", cos);
  rep.add("failed_share", "fraction",
          static_cast<double>(bad_rows) / static_cast<double>(passes * tokens_per_pass));
  rep.add("goodput_share", "fraction",
          1.0 - static_cast<double>(bad_rows) / static_cast<double>(passes * tokens_per_pass));

  // Layer metrics.
  rep.add("ptc.macs_per_token", "count", static_cast<double>(ev.macs) / n);
  rep.add("ptc.modulations_per_token", "count", static_cast<double>(ev.modulation_events) / n);
  rep.add("ptc.adc_samples_per_token", "count", static_cast<double>(ev.adc_events) / n);
  rep.add("ptc.cycles_per_token", "cycles", static_cast<double>(ev.cycles) / n);
  rep.add("ptc.host_ns_per_mac", "ns", mean_pass_s * 1e9 / static_cast<double>(ev.macs));
  rep.add("arch.uj_per_token.data", "uJ", uj_pdac / n);
  rep.add("arch.uj_per_token.checksum", "uJ", 0.0);
  rep.add("arch.uj_per_token.recovery", "uJ", 0.0);
  rep.add("arch.uj_per_token.dac_baseline", "uJ", uj_dac / n);
  rep.add("nn.operand_cache.hit_ratio", "fraction", oc_hit_ratio);
  rep.add("nn.operand_cache.resident_mb", "MiB",
          static_cast<double>(oc1.resident_bytes) / (1 << 20));
  rep.add("nn.operand_cache.evictions", "count", static_cast<double>(oc1.evictions));
  const std::uint64_t kv_appends = kc1.appends - kc0.appends;
  const std::uint64_t kv_rebuilds = kc1.rebuilds - kc0.rebuilds;
  const std::uint64_t kv_misses = kc1.misses - kc0.misses;
  rep.add("nn.kv_cache.append_ratio", "fraction",
          static_cast<double>(kv_appends) /
              static_cast<double>(std::max<std::uint64_t>(1, kv_appends + kv_rebuilds + kv_misses)));
  rep.add("nn.kv_cache.rebuilds", "count", static_cast<double>(kv_rebuilds));
  rep.add("nn.kv_cache.resident_mb", "MiB",
          static_cast<double>(first.kv_resident_bytes) / (1 << 20));
  rep.add("nn.kv_cache.evictions", "count", static_cast<double>(kc1.evictions));

  if (args.trace) {
    const double traced_n = static_cast<double>(with_spans.size() * tokens_per_pass);
    const auto totals = rec.totals();
    auto ms_per_token = [&](const std::string& name, bool self) {
      const auto it = totals.find(name);
      if (it == totals.end()) return 0.0;
      return static_cast<double>(self ? it->second.self_ns : it->second.total_ns) * 1e-6 /
             traced_n / slowdown;
    };
    for (const char* role : {"q", "k", "v", "o", "ffn_up", "ffn_down"}) {
      rep.add(std::string("nn.linear.") + role + ".ms_per_token", "ms",
              ms_per_token(std::string("gemm.cached.") + role, false));
    }
    rep.add("nn.attention.scores.ms_per_token", "ms", ms_per_token("gemm.kv.scores", false));
    rep.add("nn.attention.context.ms_per_token", "ms", ms_per_token("gemm.kv.context", false));
    rep.add("nn.attention.self_ms_per_token", "ms",
            ms_per_token("attention.forward_decode", true));
    // Vector-unit work: norms, GELU, residual adds, and the bias adds
    // that are the self time of the FFN Linear::forward spans.
    rep.add("nn.ops.ms_per_token", "ms",
            ms_per_token("ops.layer_norm", false) + ms_per_token("ops.gelu", false) +
                ms_per_token("ops.residual", false) + ms_per_token("linear.ffn_up", true) +
                ms_per_token("linear.ffn_down", true));
    rep.add("nn.unattributed_ms_per_token", "ms", ms_per_token("token", true));

    std::uint64_t all_macs = 0, kv_macs = 0, bytes = 0;
    for (const auto& [label, w] : traced.work()) {
      all_macs += w.macs;
      bytes += w.operand_bytes;
      if (label.rfind("attention.", 0) == 0) kv_macs += w.macs;
    }
    rep.add("nn.attention.kv_mac_share", "fraction",
            static_cast<double>(kv_macs) / static_cast<double>(std::max<std::uint64_t>(1, all_macs)));
    rep.add("ptc.operand_bytes_per_token", "bytes", static_cast<double>(bytes) / traced_n);
    // Overhead from paired token positions: the traced time of each token
    // over the median untraced time of the same position, so a stall in
    // one pass moves only the median of thousands of ratios.
    std::vector<double> ratios;
    for (std::size_t t = 0; t < tokens_per_pass; ++t) {
      std::vector<double> at_t;
      for (const Pass& p : plain) at_t.push_back(p.token_ms[t]);
      const double base = median(at_t);
      for (const Pass& p : with_spans) ratios.push_back(p.token_ms[t] / base);
    }
    rep.add("trace.overhead_share", "fraction", 1.0 - 1.0 / median(ratios));

    const std::string path = args.trace_dir + "/" + s.name + "-seed" +
                             std::to_string(args.seed) + ".spans.tsv";
    if (rec.write_tsv(path)) {
      rep.note("spans: " + std::to_string(rec.size()) + " written to " + path);
    } else {
      rep.note("spans: could not write " + path);
    }
  }
  return 0;
}

}  // namespace

int run_decode_bert_base(const Args& args, Report& rep) { return run_decode(kBertBase, args, rep); }

int run_decode_long_context(const Args& args, Report& rep) {
  return run_decode(kLongContext, args, rep);
}

}  // namespace perfbench
