// harness.hpp — what the benches that write BENCH_*.json share: one
// argument parser, one round-robin timing sampler, one JSON writer, the
// identity and pricing helpers their gates read, and the BERT-base decode
// model perf_kernel and perf_weight_cache time.
//
// Every bench takes `--smoke` (tiny shapes for CI), `--out FILE` (the JSON
// destination, by default BENCH_<name>.json in the repository root) and,
// for the two decode benches, `--layers N`.  Anything else prints the
// usage and exits 2.  A bench exits 1 when a gate fails or the JSON cannot
// be written.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "arch/energy_model.hpp"
#include "arch/lt_config.hpp"
#include "arch/power_params.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "eval/report.hpp"
#include "faults/lane_bank.hpp"
#include "nn/attention.hpp"
#include "nn/backend.hpp"
#include "nn/linear.hpp"
#include "nn/ops.hpp"
#include "ptc/gemm_engine.hpp"
#include "serve/engine.hpp"

#ifndef PDAC_REPO_ROOT
#define PDAC_REPO_ROOT "."
#endif

namespace pdac::bench {

// ---- arguments --------------------------------------------------------------

struct Args {
  bool smoke{false};
  std::string out;        ///< JSON destination
  std::size_t layers{0};  ///< `--layers` override; 0 = the mode's default
};

/// Parses `--smoke`, `--out FILE` and, when `takes_layers`, `--layers N`
/// with N ≥ 1.  An unknown flag, a flag without its value or a layer
/// count that is not a positive integer prints the usage and exits 2, so
/// a mistyped `--smoke` never starts the full-size run.  `json_name` is
/// the default destination's file name in the repository root.
inline Args parse_args(int argc, char** argv, const char* json_name, bool takes_layers = false) {
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]%s\n", argc > 0 ? argv[0] : "bench",
                 takes_layers ? " [--layers N]" : "");
    std::exit(2);
  };
  Args args;
  args.out = std::string(PDAC_REPO_ROOT) + "/" + json_name;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if ((flag != "--out" && (flag != "--layers" || !takes_layers)) || i + 1 == argc) usage();
    const char* value = argv[++i];
    if (flag == "--out") {
      args.out = value;
      continue;
    }
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(value, &end, 10);
    if (std::isdigit(static_cast<unsigned char>(value[0])) == 0 || *end != '\0' ||
        errno == ERANGE || n == 0) {
      usage();
    }
    args.layers = static_cast<std::size_t>(n);
  }
  return args;
}

// ---- timing -----------------------------------------------------------------

/// Order statistics of one candidate's timed samples (nearest rank).
struct Spread {
  double min{0.0};
  double q1{0.0};
  double median{0.0};
  double q3{0.0};
};

inline Spread spread_of(std::vector<double> ms) {
  if (ms.empty()) return {};
  std::sort(ms.begin(), ms.end());
  const auto rank = [&](double q) {
    return ms[static_cast<std::size_t>(q * static_cast<double>(ms.size() - 1) + 0.5)];
  };
  return {ms.front(), rank(0.25), rank(0.5), rank(0.75)};
}

/// The one timing rule: `warmup` untimed rounds, then `rounds` timed
/// ones, each running every candidate in turn — `prepare(c)` untimed,
/// then `run(c)` timed — so host drift during the run lands on all
/// candidates alike instead of on whichever ran last.  Returns each
/// candidate's wall times in ms, in round order.
inline std::vector<std::vector<double>> sample_round_robin(
    std::size_t candidates, std::size_t warmup, std::size_t rounds,
    const std::function<void(std::size_t)>& run,
    const std::function<void(std::size_t)>& prepare = {}) {
  std::vector<std::vector<double>> ms(candidates);
  for (std::size_t r = 0; r < warmup + rounds; ++r) {
    for (std::size_t c = 0; c < candidates; ++c) {
      if (prepare) prepare(c);
      const auto t0 = std::chrono::steady_clock::now();
      run(c);
      const auto t1 = std::chrono::steady_clock::now();
      if (r >= warmup) ms[c].push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  return ms;
}

// ---- JSON -------------------------------------------------------------------

/// One JSON document, built field by field.  It owns the quoting, the
/// commas, the layout and each number's format, and writes a non-finite
/// number as null.  A null key adds an array element.
class Json {
 public:
  Json() { open(nullptr, '{'); }

  Json& object(const char* key = nullptr) {
    open(key, '{');
    return *this;
  }
  Json& array(const char* key) {
    open(key, '[');
    return *this;
  }
  Json& end() {
    const char close = closers_.back();
    closers_.pop_back();
    first_.pop_back();
    text_ += '\n' + std::string(2 * closers_.size(), ' ') + close;
    return *this;
  }

  Json& field(const char* key, const char* v) { return put(key, quoted(v)); }
  Json& field(const char* key, bool v) { return put(key, v ? "true" : "false"); }
  template <std::integral T>
  Json& field(const char* key, T v) {
    return put(key, std::to_string(v));
  }
  Json& field(const char* key, double v, const char* fmt = "%.3f") {
    return put(key, number(v, fmt));
  }
  /// A spread on one line, in ms.
  Json& field(const char* key, const Spread& s) {
    return put(key, "{\"min\": " + number(s.min, "%.3f") + ", \"q1\": " + number(s.q1, "%.3f") +
                        ", \"median\": " + number(s.median, "%.3f") +
                        ", \"q3\": " + number(s.q3, "%.3f") + "}");
  }
  /// A list of numbers on one line.
  template <class T>
  Json& list(const char* key, const std::vector<T>& v, const char* fmt = "%.3f") {
    std::string items;
    for (const T& x : v) {
      if (!items.empty()) items += ", ";
      if constexpr (std::integral<T>) {
        items += std::to_string(x);
      } else {
        items += number(x, fmt);
      }
    }
    return put(key, '[' + items + ']');
  }

  /// Closes the document and writes it to `path`; false (with a message)
  /// when the file cannot be written.
  bool write(const std::string& path) {
    while (!closers_.empty()) end();
    text_ += '\n';
    std::FILE* f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr && std::fputs(text_.c_str(), f) >= 0;
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    if (!ok) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string number(double v, const char* fmt) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
  }
  static std::string quoted(const char* s) {
    std::string out = "\"";
    for (; *s != '\0'; ++s) {
      const auto c = static_cast<unsigned char>(*s);
      if (c == '"' || c == '\\') {
        out += '\\';
        out += static_cast<char>(c);
      } else if (c < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += static_cast<char>(c);
      }
    }
    return out + '"';
  }
  void prefix(const char* key) {
    if (!first_.empty()) {
      if (!first_.back()) text_ += ',';
      first_.back() = false;
      text_ += '\n' + std::string(2 * closers_.size(), ' ');
    }
    if (key != nullptr) text_ += quoted(key) + ": ";
  }
  void open(const char* key, char bracket) {
    prefix(key);
    text_ += bracket;
    closers_.push_back(bracket == '{' ? '}' : ']');
    first_.push_back(true);
  }
  Json& put(const char* key, const std::string& value) {
    prefix(key);
    text_ += value;
    return *this;
  }

  std::string text_;
  std::vector<char> closers_;  ///< per open level: its closing bracket
  std::vector<bool> first_;    ///< per open level: nothing written yet
};

// ---- identity and pricing ---------------------------------------------------

inline bool bit_identical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)) == 0;
}

inline bool events_equal(const ptc::EventCounter& a, const ptc::EventCounter& b) {
  return a.modulation_events == b.modulation_events &&
         a.detection_events == b.detection_events && a.adc_events == b.adc_events &&
         a.ddot_ops == b.ddot_ops && a.macs == b.macs && a.cycles == b.cycles;
}

/// Cosine similarity of two equal-shape matrices (1.0 = parallel).  It
/// fails closed: a shape mismatch or a zero norm reads 0, below every gate.
inline double cosine(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return 0.0;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a.data()[i] * b.data()[i];
    na += a.data()[i] * a.data()[i];
    nb += b.data()[i] * b.data()[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

/// The hot-path configuration the numeric tiers target: full optics + ADC.
inline ptc::GemmConfig hot_config(ptc::ExecutionPath path) {
  ptc::GemmConfig cfg;
  cfg.dot.use_full_optics = true;
  cfg.dot.adc_readout = true;
  cfg.path = path;
  return cfg;
}

/// Energy of `ev` on LT-B at 8 bits with P-DAC drivers, in µJ.
inline double price_uj(const ptc::EventCounter& ev, const arch::LtConfig& lt,
                       const arch::PowerParams& params) {
  return arch::event_energy(ev, lt, params, 8, arch::SystemVariant::kPdacBased).joules() * 1e6;
}

/// An 8-bit lane bank with the fabrication spread every fault bench
/// draws from; equal seeds give identical fabrication draws.
inline faults::LaneBankConfig bank_config(std::size_t wavelengths, std::uint64_t seed) {
  faults::LaneBankConfig cfg;
  cfg.pdac.bits = 8;
  cfg.wavelengths = wavelengths;
  cfg.variation.tia_gain_sigma = 0.01;
  cfg.variation.bias_sigma = 0.002;
  cfg.variation.vpi_drift_sigma = 0.005;
  cfg.variation.seed = seed;
  return cfg;
}

/// A serving run's report summary.  Pool energy is every backend's
/// data-path events (recovery re-runs included) plus its checksum-lane
/// charge; retry_events is a subset of the data counter, not re-added.
inline eval::ServingSummary serving_summary(const serve::ServingReport& rep,
                                            std::size_t requests, const arch::LtConfig& lt,
                                            const arch::PowerParams& params) {
  eval::ServingSummary s;
  s.requests = requests;
  s.completed = rep.completed;
  s.shed = rep.shed;
  s.failed = rep.failed;
  s.tokens = rep.tokens_emitted;
  s.goodput_tokens = rep.goodput_tokens;
  s.makespan_cycles = rep.makespan;
  s.p50_token_gap = serve::percentile(rep.token_gaps, 50.0);
  s.p99_token_gap = serve::percentile(rep.token_gaps, 99.0);
  s.p50_request_latency = serve::percentile(rep.request_latencies, 50.0);
  s.p99_request_latency = serve::percentile(rep.request_latencies, 99.0);
  for (const serve::BackendServeStats& b : rep.backends) {
    s.energy_uj += price_uj(b.events, lt, params);
    s.energy_uj += price_uj(b.health.checksum_events, lt, params);
  }
  s.goodput_per_joule =
      s.energy_uj > 0.0 ? static_cast<double>(rep.goodput_tokens) / (s.energy_uj * 1e-6) : 0.0;
  s.throttled_products = rep.throttled_products;
  s.quarantines = rep.quarantines;
  s.readmissions = rep.readmissions;
  s.canary_probes = rep.canary_probes;
  for (const serve::BackendServeStats& b : rep.backends) {
    eval::ServingBackendRow row;
    row.tokens = b.tokens;
    row.products = b.products;
    row.utilization = rep.makespan > 0 ? static_cast<double>(b.busy_cycles) /
                                             static_cast<double>(rep.makespan)
                                       : 0.0;
    row.final_health = b.final_health;
    row.alive = b.alive;
    row.quarantined = b.quarantined;
    row.fences = b.health.fences;
    row.unrecovered = b.health.unrecovered;
    row.drifting_lanes = b.drift.drifting;
    row.excursion_lanes = b.drift.excursions;
    s.backends.push_back(row);
  }
  return s;
}

// ---- BERT-base decode -------------------------------------------------------

struct DecodeShapes {
  std::size_t d_model, heads, d_ff, context, layers;
};

/// BERT-base (d 768, 12 heads, d_ff 3072, 12 layers) against a 128-token
/// history; `--smoke` shrinks everything so CI runs the same code path
/// in milliseconds.
inline DecodeShapes decode_shapes(const Args& args) {
  DecodeShapes s =
      args.smoke ? DecodeShapes{64, 4, 256, 16, 2} : DecodeShapes{768, 12, 3072, 128, 12};
  if (args.layers != 0) s.layers = args.layers;
  return s;
}

/// Seeded transformer layers decoded one token at a time: attention
/// through MultiHeadAttention::forward_decode(kUnprepared) — the score and
/// context products on the backend's uncached matmul — then the FFN
/// through nn::Linear, whose weights the backend's operand cache holds.
/// Every token starts from a copy of one seeded `context`-token K/V
/// history, so compared runs decode the same stream.  Unprepared decode
/// never reads the state's KV handles, so copies may share them.
class DecodeModel {
 public:
  using History = std::vector<nn::AttentionKvState>;

  DecodeModel(const DecodeShapes& s, std::uint64_t seed) {
    Rng rng(seed);
    const std::size_t dh = s.d_model / s.heads;
    layers_.reserve(s.layers);  // no reallocation: Linear ids must stay put
    for (std::size_t l = 0; l < s.layers; ++l) {
      Layer& layer = layers_.emplace_back(s);
      layer.attn.init_random(rng);
      layer.up.init_random(rng);
      layer.down.init_random(rng);
      nn::AttentionKvState& kv = history_.emplace_back(layer.attn.make_kv_state());
      for (std::size_t h = 0; h < s.heads; ++h) {
        kv.k_heads[h] = Matrix::random_gaussian(s.context, dh, rng, 0.0, 0.5);
        kv.v_heads[h] = Matrix::random_gaussian(s.context, dh, rng, 0.0, 0.5);
      }
      kv.tokens = s.context;
    }
    x0_ = Matrix::random_gaussian(1, s.d_model, rng, 0.0, 0.5);
  }

  [[nodiscard]] const History& history() const { return history_; }

  /// One token through every layer, appending it to `kv` (a history copy).
  [[nodiscard]] Matrix run(nn::GemmBackend& backend, History& kv) const {
    Matrix x = x0_;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      x = layers_[l].attn.forward_decode(x, backend, kv[l], nn::KvDecodeMode::kUnprepared);
      Matrix hidden = layers_[l].up.forward(x, backend);
      nn::gelu(hidden);
      x = layers_[l].down.forward(hidden, backend);
    }
    return x;
  }
  [[nodiscard]] Matrix run(nn::GemmBackend& backend) const {
    History kv = history_;
    return run(backend, kv);
  }

 private:
  struct Layer {
    explicit Layer(const DecodeShapes& s)
        : attn(s.d_model, s.heads), up(s.d_model, s.d_ff), down(s.d_ff, s.d_model) {}
    nn::MultiHeadAttention attn;
    nn::Linear up, down;
  };

  std::vector<Layer> layers_;
  History history_;
  Matrix x0_;
};

}  // namespace pdac::bench
