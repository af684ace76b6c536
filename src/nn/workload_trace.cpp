#include "nn/workload_trace.hpp"

#include "common/require.hpp"
#include "nn/decode_trace.hpp"

namespace pdac::nn {

std::size_t WorkloadTrace::total_macs() const {
  std::size_t sum = 0;
  for (const auto& g : gemms) sum += g.macs();
  return sum;
}

std::size_t WorkloadTrace::macs(OpClass c) const {
  std::size_t sum = 0;
  for (const auto& g : gemms) {
    if (g.op_class == c) sum += g.macs();
  }
  return sum;
}

std::size_t WorkloadTrace::weight_elements(OpClass c) const {
  std::size_t sum = 0;
  for (const auto& g : gemms) {
    if (g.op_class == c) sum += g.weight_elements();
  }
  return sum;
}

std::size_t WorkloadTrace::activation_elements(OpClass c) const {
  std::size_t sum = 0;
  for (const auto& g : gemms) {
    if (g.op_class == c) sum += g.activation_elements();
  }
  return sum;
}

namespace {

/// Appends one transformer block per layer: `sequences` independent
/// sequences each run `rows` query rows attending over `context` K/V
/// rows.  The weight GEMMs fuse across sequences into one
/// (sequences·rows)-row product; Q·Kᵀ and A·V are dynamic–dynamic
/// products (no weight fetch) run per head and per sequence, since every
/// sequence attends over its own keys.  With `kv_cache`, the K and V
/// operands stream from the cache, charged as extra movement per repeat,
/// and every new row's K and V are appended to it.
void trace_blocks(WorkloadTrace& t, std::size_t sequences, std::size_t rows,
                  std::size_t context, bool kv_cache) {
  const TransformerConfig& cfg = t.config;
  const std::size_t d = cfg.d_model;
  const std::size_t h = cfg.heads;
  const std::size_t dh = cfg.d_head();
  const std::size_t ff = cfg.d_ff;
  const std::size_t m = sequences * rows;
  const std::size_t kv_reads = kv_cache ? dh * context : 0;

  for (std::size_t layer = 0; layer < cfg.layers; ++layer) {
    std::string p = kv_cache ? "D" : "L";
    p += std::to_string(layer);
    p += '.';
    t.gemms.push_back({p + "Q-proj", OpClass::kAttention, m, d, d, true, 1, 0});
    t.gemms.push_back({p + "K-proj", OpClass::kAttention, m, d, d, true, 1, 0});
    t.gemms.push_back({p + "V-proj", OpClass::kAttention, m, d, d, true, 1, 0});
    t.gemms.push_back(
        {p + "QK^T", OpClass::kAttention, rows, dh, context, false, h * sequences, kv_reads});
    t.gemms.push_back(
        {p + "AV", OpClass::kAttention, rows, context, dh, false, h * sequences, kv_reads});
    t.gemms.push_back({p + "O-proj", OpClass::kAttention, m, d, d, true, 1, 0});
    t.gemms.push_back({p + "FFN-up", OpClass::kFfn, m, d, ff, true, 1, 0});
    t.gemms.push_back({p + "FFN-down", OpClass::kFfn, m, ff, d, true, 1, 0});

    // Digital vector work (softmax, GELU, two layernorms, residuals).
    t.vector_ops.push_back({p + "softmax", OpClass::kOther, h * m * context});
    t.vector_ops.push_back({p + "gelu", OpClass::kOther, m * ff});
    t.vector_ops.push_back({p + "layernorm×2", OpClass::kOther, 2 * m * d});
    t.vector_ops.push_back({p + "residual×2", OpClass::kOther, 2 * m * d});
    if (kv_cache) t.vector_ops.push_back({p + "kv-append", OpClass::kOther, 2 * m * d});
  }
}

}  // namespace

WorkloadTrace trace_forward(const TransformerConfig& cfg) {
  WorkloadTrace t;
  t.config = cfg;
  trace_blocks(t, 1, cfg.seq_len, cfg.seq_len, false);
  return t;
}

WorkloadTrace trace_decode_step(const TransformerConfig& cfg, std::size_t context_len,
                                std::size_t batch) {
  PDAC_REQUIRE(context_len >= 1, "trace_decode_step: context must be non-empty");
  PDAC_REQUIRE(batch >= 1, "trace_decode_step: batch must be positive");
  WorkloadTrace t;
  t.config = cfg;
  trace_blocks(t, batch, 1, context_len, true);
  return t;
}

std::string to_string(OpClass c) {
  switch (c) {
    case OpClass::kAttention: return "attention";
    case OpClass::kFfn: return "ffn";
    case OpClass::kConv: return "conv";
    case OpClass::kOther: return "other";
  }
  return "?";
}

}  // namespace pdac::nn
