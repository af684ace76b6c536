// Tests for the decode-phase (KV-cache) workload tracer.
#include <gtest/gtest.h>

#include "arch/energy_model.hpp"
#include "common/require.hpp"
#include "nn/decode_trace.hpp"
#include "nn/model_config.hpp"

namespace {

using namespace pdac;
using namespace pdac::nn;

TEST(DecodeTrace, SingleTokenGemvShapes) {
  const auto cfg = bert_base(128);
  const auto t = trace_decode_step(cfg, 256);
  for (const auto& g : t.gemms) {
    EXPECT_EQ(g.m, 1u) << g.label;  // everything is a GEMV in decode
  }
  EXPECT_EQ(t.gemms.size(), cfg.layers * 8);
}

TEST(DecodeTrace, MacsMatchClosedForm) {
  const auto cfg = bert_base(128);
  const std::size_t ctx = 512;
  const auto t = trace_decode_step(cfg, ctx);
  const std::size_t d = cfg.d_model, ff = cfg.d_ff, h = cfg.heads, dh = cfg.d_head();
  const std::size_t per_layer =
      4 * d * d + 2 * h * dh * ctx + 2 * d * ff;
  EXPECT_EQ(t.total_macs(), cfg.layers * per_layer);
}

TEST(DecodeTrace, AttentionScoresScaleWithContext) {
  const auto cfg = bert_base(128);
  const auto short_ctx = trace_decode_step(cfg, 128);
  const auto long_ctx = trace_decode_step(cfg, 1024);
  EXPECT_GT(long_ctx.macs(OpClass::kAttention), short_ctx.macs(OpClass::kAttention));
  // FFN work is context-independent.
  EXPECT_EQ(long_ctx.macs(OpClass::kFfn), short_ctx.macs(OpClass::kFfn));
}

TEST(DecodeTrace, KvReadsChargedAsExtraMovement) {
  const auto cfg = bert_base(128);
  const std::size_t ctx = 300;
  const auto t = trace_decode_step(cfg, ctx);
  std::uint64_t kv_elements = 0;
  for (const auto& g : t.gemms) {
    if (!g.static_weights) {
      EXPECT_GT(g.extra_movement_elements, 0u) << g.label;
      kv_elements += g.extra_movement_elements * g.repeats;
    } else {
      EXPECT_EQ(g.extra_movement_elements, 0u) << g.label;
    }
  }
  // Per layer: K rows (dh·ctx per head) + V rows — i.e. 2·d·ctx.
  EXPECT_EQ(kv_elements, cfg.layers * 2 * cfg.d_model * ctx);
}

TEST(DecodeTrace, RejectsEmptyContext) {
  EXPECT_THROW(trace_decode_step(bert_base(128), 0), PreconditionError);
}

TEST(KvCache, FootprintFormula) {
  const auto cfg = bert_base(128);
  // 2 · 12 layers · 1024 ctx · 768 · 1 byte = 18.87 MB at 8-bit.
  EXPECT_EQ(kv_cache_bytes(cfg, 1024, 8), 2ull * 12 * 1024 * 768);
  EXPECT_EQ(kv_cache_bytes(cfg, 1024, 4), 2ull * 12 * 1024 * 768 / 2);
}

TEST(ArithmeticIntensity, DecodeFarBelowPrefill) {
  const auto cfg = bert_base(128);
  const double prefill_ai = arithmetic_intensity(trace_forward(cfg), 8);
  const double decode_ai = arithmetic_intensity(trace_decode_step(cfg, 512), 8);
  EXPECT_GT(prefill_ai, 20.0 * decode_ai);
  EXPECT_GT(decode_ai, 0.0);
}

TEST(ArithmeticIntensity, HalvingBitsDoublesIntensity) {
  const auto t = trace_decode_step(bert_base(128), 256);
  EXPECT_NEAR(arithmetic_intensity(t, 4) / arithmetic_intensity(t, 8), 2.0, 1e-9);
}

TEST(DecodeEnergy, MovementDominatedAtAllContexts) {
  // Every decode step is movement-dominated: weights and KV rows are
  // fetched for single-token GEMVs, so the P-DAC saving sits an order
  // of magnitude below prefill regardless of context length.  Within
  // decode, longer contexts shift work toward the dynamic products,
  // whose double-rate conversions give the P-DAC slightly *more* to
  // save.
  const auto cfg = bert_base(128);
  const auto lt = arch::lt_base();
  const auto params = arch::lt_power_params();
  const double s_short =
      arch::compare_energy(trace_decode_step(cfg, 128), lt, params, 8).total_saving();
  const double s_long =
      arch::compare_energy(trace_decode_step(cfg, 4096), lt, params, 8).total_saving();
  EXPECT_GT(s_long, s_short);
  EXPECT_GT(s_short, 0.0);
  EXPECT_LT(s_long, 0.10);  // an order of magnitude below prefill's 33 %
}

TEST(DecodeEnergy, BelowPrefillSaving) {
  const auto cfg = bert_base(128);
  const auto lt = arch::lt_base();
  const auto params = arch::lt_power_params();
  const double s_prefill =
      arch::compare_energy(trace_forward(cfg), lt, params, 8).total_saving();
  const double s_decode =
      arch::compare_energy(trace_decode_step(cfg, 512), lt, params, 8).total_saving();
  EXPECT_GT(s_prefill, s_decode);
}

}  // namespace

namespace {

using namespace pdac;
using namespace pdac::nn;

TEST(BatchedDecode, WeightGemmsFuseAcrossBatch) {
  const auto cfg = bert_base(128);
  const auto t = trace_decode_step(cfg, 256, 16);
  for (const auto& g : t.gemms) {
    if (g.static_weights) {
      EXPECT_EQ(g.m, 16u) << g.label;  // fused (batch × d) GEMM
    } else {
      EXPECT_EQ(g.m, 1u) << g.label;   // attention stays per-sequence
      EXPECT_EQ(g.repeats, cfg.heads * 16) << g.label;
    }
  }
}

TEST(BatchedDecode, MacsScaleLinearlyWithBatch) {
  const auto cfg = bert_base(128);
  const auto b1 = trace_decode_step(cfg, 256, 1);
  const auto b8 = trace_decode_step(cfg, 256, 8);
  EXPECT_EQ(b8.total_macs(), 8 * b1.total_macs());
  // …but weight traffic does NOT scale: that is the whole point.
  std::size_t w1 = 0, w8 = 0;
  for (const auto& g : b1.gemms) w1 += g.weight_elements();
  for (const auto& g : b8.gemms) w8 += g.weight_elements();
  EXPECT_EQ(w1, w8);
}

TEST(BatchedDecode, KvTrafficScalesWithBatch) {
  const auto cfg = bert_base(128);
  const auto b1 = trace_decode_step(cfg, 256, 1);
  const auto b8 = trace_decode_step(cfg, 256, 8);
  auto kv = [](const WorkloadTrace& t) {
    std::size_t sum = 0;
    for (const auto& g : t.gemms) sum += g.extra_movement_elements * g.repeats;
    return sum;
  };
  EXPECT_EQ(kv(b8), 8 * kv(b1));
}

TEST(BatchedDecode, SavingImprovesWithBatch) {
  const auto cfg = bert_base(128);
  const auto lt = arch::lt_base();
  const auto params = arch::lt_power_params();
  const double s1 =
      arch::compare_energy(trace_decode_step(cfg, 512, 1), lt, params, 8)
          .total_saving();
  const double s32 =
      arch::compare_energy(trace_decode_step(cfg, 512, 32), lt, params, 8)
          .total_saving();
  EXPECT_GT(s32, 2.0 * s1);
}

TEST(GemmOpMovement, DecodeScoresCountKvReadsOncePerHead) {
  // A decode Q·Kᵀ op is traced once with repeats = heads; every head
  // streams its own d_head × context slice of the K cache.  As a dynamic
  // product it fetches no weights and stages no activations, so the KV
  // reads are all it moves.
  const auto cfg = bert_base(128);
  const auto t = trace_decode_step(cfg, 300);
  const GemmOp& qk = t.gemms[3];
  ASSERT_EQ(qk.label, "D0.QK^T");
  EXPECT_EQ(qk.repeats, cfg.heads);
  EXPECT_EQ(qk.extra_movement_elements, cfg.d_head() * 300);
  EXPECT_EQ(qk.moved_elements(), cfg.heads * cfg.d_head() * 300);
  // A static projection moves its weights plus its staged activations.
  const GemmOp& q = t.gemms[0];
  ASSERT_EQ(q.label, "D0.Q-proj");
  EXPECT_EQ(q.moved_elements(), q.k * q.n + q.m * q.k + q.m * q.n);
}

TEST(BatchedDecode, RejectsZeroBatch) {
  EXPECT_THROW(trace_decode_step(bert_base(128), 128, 0), PreconditionError);
}

}  // namespace

namespace {

using namespace pdac;
using namespace pdac::nn;

TEST(QuantizedKv, EqualWidthsMatchPlainDecode) {
  const auto cfg = bert_base(128);
  const auto plain = trace_decode_step(cfg, 300);
  const auto q = trace_decode_step_quantized_kv(cfg, 300, 8, 8);
  ASSERT_EQ(plain.gemms.size(), q.gemms.size());
  for (std::size_t i = 0; i < plain.gemms.size(); ++i) {
    EXPECT_EQ(plain.gemms[i].extra_movement_elements, q.gemms[i].extra_movement_elements);
  }
}

TEST(QuantizedKv, HalfWidthHalvesCacheTraffic) {
  const auto cfg = bert_base(128);
  const auto full = trace_decode_step_quantized_kv(cfg, 512, 8, 8);
  const auto half = trace_decode_step_quantized_kv(cfg, 512, 8, 4);
  auto kv = [](const WorkloadTrace& t) {
    std::size_t sum = 0;
    for (const auto& g : t.gemms) sum += g.total_extra_movement_elements();
    return sum;
  };
  EXPECT_EQ(kv(half), kv(full) / 2);
  // Compute is unchanged: only the cache representation thins.
  EXPECT_EQ(half.total_macs(), full.total_macs());
}

TEST(QuantizedKv, ThinnerCacheRaisesPdacSaving) {
  const auto cfg = bert_base(128);
  const auto lt = arch::lt_base();
  const auto params = arch::lt_power_params();
  const double s8 = arch::compare_energy(trace_decode_step_quantized_kv(cfg, 2048, 8, 8),
                                         lt, params, 8)
                        .total_saving();
  const double s2 = arch::compare_energy(trace_decode_step_quantized_kv(cfg, 2048, 8, 2),
                                         lt, params, 8)
                        .total_saving();
  EXPECT_GT(s2, s8);
}

TEST(QuantizedKv, RejectsBadWidths) {
  EXPECT_THROW(trace_decode_step_quantized_kv(bert_base(128), 128, 0, 8),
               PreconditionError);
  EXPECT_THROW(trace_decode_step_quantized_kv(bert_base(128), 128, 8, 0),
               PreconditionError);
}

}  // namespace
