// decode_trace.hpp — autoregressive (decode-phase) LLM inference traces.
//
// The paper targets LLM inference, whose serving cost is dominated by
// the KV-cache decode phase (§II-A1: "the KV cache stores precomputed K
// and V vectors … without redundant calculations").  This module traces
// that phase: per generated token every GEMM collapses to a GEMV
// (m = 1), the attention scores/context products read the K and V
// caches from memory, and arithmetic intensity drops by orders of
// magnitude versus prefill — the regime where the P-DAC's advantage is
// most diluted by data movement.  The decode benches quantify exactly
// that.
#pragma once

#include <cstdint>

#include "nn/model_config.hpp"
#include "nn/workload_trace.hpp"

namespace pdac::nn {

/// Trace the generation of ONE token by each of `batch` independent
/// sequences, every one with a KV cache holding `context_len` previous
/// tokens (prompt + already-generated).  Projections and FFN GEMVs fuse
/// into (batch × d) GEMMs — restoring weight reuse and DDot-row
/// occupancy — while every sequence still streams its own KV cache
/// (attention stays per-sequence).  Batching is the standard LLM-serving
/// lever; the A15 bench quantifies how much of the P-DAC's prefill-class
/// saving it recovers.  Defined beside trace_forward (workload_trace.cpp),
/// whose transformer block it shares.
WorkloadTrace trace_decode_step(const TransformerConfig& cfg, std::size_t context_len,
                                std::size_t batch = 1);

/// Decode step with the KV cache stored at `kv_bits` precision while
/// operands compute at `operand_bits` (KV-cache quantization, the
/// standard serving memory/bandwidth lever).  The energy model charges
/// movement at the operand width, so the cache reads are rescaled to
/// operand-width-equivalent elements: elements · kv_bits / operand_bits
/// (exact for the usual power-of-two pairs).
WorkloadTrace trace_decode_step_quantized_kv(const TransformerConfig& cfg,
                                             std::size_t context_len, int operand_bits,
                                             int kv_bits);

/// KV-cache footprint in bytes for a given context length and operand
/// width: 2 (K and V) · layers · context · d_model · bits/8.
std::uint64_t kv_cache_bytes(const TransformerConfig& cfg, std::size_t context_len,
                             int bits);

/// Arithmetic intensity (MACs per byte moved) of a trace at a given
/// operand width — the roofline x-coordinate.
double arithmetic_intensity(const WorkloadTrace& trace, int bits);

}  // namespace pdac::nn
