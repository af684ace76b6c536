#include "nn/decode_trace.hpp"

#include "common/require.hpp"

namespace pdac::nn {

WorkloadTrace trace_decode_step_quantized_kv(const TransformerConfig& cfg,
                                             std::size_t context_len, int operand_bits,
                                             int kv_bits) {
  PDAC_REQUIRE(operand_bits >= 1 && kv_bits >= 1,
               "trace_decode_step_quantized_kv: bit widths must be positive");
  WorkloadTrace t = trace_decode_step(cfg, context_len);
  for (auto& g : t.gemms) {
    // Rescale cache reads to operand-width-equivalent elements.
    g.extra_movement_elements = g.extra_movement_elements *
                                static_cast<std::size_t>(kv_bits) /
                                static_cast<std::size_t>(operand_bits);
  }
  return t;
}

std::uint64_t kv_cache_bytes(const TransformerConfig& cfg, std::size_t context_len,
                             int bits) {
  PDAC_REQUIRE(bits >= 1, "kv_cache_bytes: bits must be positive");
  const std::uint64_t elements =
      2ull * cfg.layers * context_len * cfg.d_model;  // K and V
  return elements * static_cast<std::uint64_t>(bits) / 8ull;
}

double arithmetic_intensity(const WorkloadTrace& trace, int bits) {
  PDAC_REQUIRE(bits >= 1, "arithmetic_intensity: bits must be positive");
  std::uint64_t moved_elements = 0;
  for (const auto& g : trace.gemms) moved_elements += g.moved_elements();
  const double bytes =
      static_cast<double>(moved_elements) * static_cast<double>(bits) / 8.0;
  return bytes > 0.0 ? static_cast<double>(trace.total_macs()) / bytes
                     : static_cast<double>(trace.total_macs());
}

}  // namespace pdac::nn
