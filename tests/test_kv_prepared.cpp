// Incremental KV-prepared attention (DESIGN.md §17): append-only
// PreparedOperand extension must be bit-identical to a from-scratch
// prepare at every sequence length — encoded/reference payloads,
// checksum stripes, product outputs, event counts and guard verdicts —
// across the scalar and SIMD tiers and at any thread count; every
// refusal trigger (scale outgrown, epoch moved, packing changed, shape
// shrank) must leave the operand untouched; the KV-history cache must
// account bytes exactly; and decode attention plus the serving engine
// must be bit-identical between prepared and unprepared execution,
// including across a mid-sequence re-trim epoch bump.  The rest of the
// cache's own accounting is pinned in test_weight_cache.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "core/modulator_driver.hpp"
#include "faults/guarded_backend.hpp"
#include "faults/lane_bank.hpp"
#include "faults/self_test.hpp"
#include "nn/attention.hpp"
#include "nn/backend.hpp"
#include "nn/operand_cache.hpp"
#include "ptc/gemm_engine.hpp"
#include "ptc/kernel.hpp"
#include "serve/engine.hpp"
#include "serve/workload.hpp"

namespace {

using namespace pdac;
using namespace pdac::ptc;

void expect_bit_identical(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // EXPECT_EQ on doubles is exact comparison — bit-identity, not closeness.
    EXPECT_EQ(got.data()[i], want.data()[i]) << what << ": element " << i;
  }
}

void expect_same_events(const EventCounter& a, const EventCounter& b) {
  EXPECT_EQ(a.modulation_events, b.modulation_events);
  EXPECT_EQ(a.detection_events, b.detection_events);
  EXPECT_EQ(a.adc_events, b.adc_events);
  EXPECT_EQ(a.ddot_ops, b.ddot_ops);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.cycles, b.cycles);
}

void expect_same_guard(const GuardOutcome& a, const GuardOutcome& b) {
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.tiles_checked, b.tiles_checked);
  EXPECT_EQ(a.mismatched_tiles, b.mismatched_tiles);
  EXPECT_EQ(a.tiles_corrected, b.tiles_corrected);
  EXPECT_EQ(a.drift_tiles, b.drift_tiles);
  EXPECT_EQ(a.worst_residual, b.worst_residual);
  EXPECT_EQ(a.worst_tolerance, b.worst_tolerance);
}

// Appended operands may carry padded physical column capacity beyond the
// logical reduction length; every comparison is over the logical span a
// consumer would read (bounded by the FRESH operand's exact shape).
void expect_same_operand(const PreparedOperand& got, const PreparedOperand& want) {
  EXPECT_EQ(got.scale, want.scale);
  EXPECT_EQ(got.abs_max, want.abs_max);
  ASSERT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.cols, want.cols);
  ASSERT_EQ(got.encoded.rows(), want.encoded.rows());
  ASSERT_GE(got.encoded.cols(), want.encoded.cols());
  for (std::size_t r = 0; r < want.encoded.rows(); ++r) {
    for (std::size_t p = 0; p < want.encoded.cols(); ++p) {
      EXPECT_EQ(got.encoded(r, p), want.encoded(r, p)) << "encoded " << r << "," << p;
    }
  }
  ASSERT_EQ(got.checksum.rows(), want.checksum.rows());
  EXPECT_EQ(got.checksum_stripe, want.checksum_stripe);
  if (want.checksum.rows() > 0) {
    ASSERT_GE(got.checksum.cols(), want.checksum.cols());
    for (std::size_t s = 0; s < want.checksum.rows(); ++s) {
      for (std::size_t p = 0; p < want.checksum.cols(); ++p) {
        EXPECT_EQ(got.checksum(s, p), want.checksum(s, p)) << "checksum " << s << "," << p;
      }
    }
  }
  // Column energies and their stamp, bit for bit: with the balanced DDot's
  // ±1e-16 energy coefficients and an 8-bit ADC, output identity alone
  // cannot see a stale or mis-summed energy.
  EXPECT_EQ(got.energy_rows, want.energy_rows);
  ASSERT_EQ(got.energy.size(), want.energy.size());
  for (std::size_t j = 0; j < want.energy.size(); ++j) {
    EXPECT_EQ(got.energy[j], want.energy[j]) << "energy " << j;
  }
}

struct TierCase {
  const char* name;
  ExecutionPath path;
};

constexpr TierCase kTiers[] = {
    {"scalar", ExecutionPath::kKernel},
    {"simd", ExecutionPath::kKernelSimd},
};

/// `optics` turns on full optics and ADC readout, under which the SIMD
/// tier stages column energies with the operand.
GemmConfig tier_config(const TierCase& tier, std::size_t threads = 1, bool optics = false) {
  GemmConfig cfg;
  cfg.array_rows = 4;
  cfg.array_cols = 4;
  cfg.threads = threads;
  cfg.guard.enabled = true;  // checksum stripes ride every append
  cfg.path = tier.path;
  cfg.dot.use_full_optics = optics;
  cfg.dot.adc_readout = optics;
  return cfg;
}

/// Every staged energy is FusedKernel's sum of its column over the
/// logical reduction length — never the padded capacity; engines whose
/// tier reads no energies stage none.
void expect_staged_energies(const PhotonicGemm& gemm, const PreparedOperand& pb) {
  const GemmConfig& cfg = gemm.config();
  if (!cfg.dot.use_full_optics || cfg.path != ExecutionPath::kKernelSimd) {
    EXPECT_TRUE(pb.energy.empty());
    return;
  }
  ASSERT_TRUE(pb.has_energy());
  const FusedKernel kernel(gemm.engine());
  for (std::size_t j = 0; j < pb.cols; ++j) {
    EXPECT_EQ(pb.energy[j], kernel.energy(pb.encoded.row(j).first(pb.rows))) << "energy " << j;
  }
}

/// The append-contract sweep: every tier at 1 and 3 workers, amplitude
/// domain and with full optics + ADC.
template <typename Body>
void for_each_tier_config(const Body& body) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    for (const bool optics : {false, true}) {
      for (const TierCase& tier : kTiers) {
        SCOPED_TRACE(testing::Message() << tier.name << ", threads " << threads << ", optics "
                                        << optics);
        body(tier, tier_config(tier, threads, optics));
      }
    }
  }
}

/// T gaussian rows with the global max-abs pinned into row 0, so every
/// later prefix extension stays within the operand's recorded abs_max
/// and the append path is exercised (refusals are tested separately).
Matrix history_rows(std::size_t t, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m = Matrix::random_gaussian(t, d, rng);
  double peak = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) peak = std::max(peak, std::abs(m.data()[i]));
  m(0, 0) = 2.0 * peak;
  return m;
}

Matrix prefix_rows(const Matrix& m, std::size_t t) {
  Matrix p(t, m.cols());
  for (std::size_t r = 0; r < t; ++r) {
    const auto src = m.row(r);
    const auto dst = p.row(r);
    for (std::size_t c = 0; c < src.size(); ++c) dst[c] = src[c];
  }
  return p;
}

// ---------------------------------------------------------------------------
// KvPrepared: the ptc::PhotonicGemm append contract.
// ---------------------------------------------------------------------------

// Output-axis growth (B = Kᵀ, the scores operand): append_bt_rows must
// reproduce a from-scratch prepare_bt bit-for-bit at every length, on
// every tier, including the ragged d=13 width against the 4×4 array.
TEST(KvPrepared, AppendBtRowsBitIdenticalToFreshAcrossTiers) {
  const std::size_t lengths[] = {1, 2, 4, 7};  // single- and multi-row appends
  for_each_tier_config([&](const TierCase& tier, const GemmConfig& cfg) {
    const auto drv = core::make_pdac_driver(8);
    const PhotonicGemm gemm(*drv, cfg);
    for (std::size_t d : {std::size_t{8}, std::size_t{13}}) {
      const Matrix full = history_rows(7, d, 101 + d);
      Rng arng(7 * d);
      PreparedOperand inc;
      bool started = false;
      for (std::size_t t : lengths) {
        const Matrix k_hist = prefix_rows(full, t);
        if (!started) {
          inc = gemm.prepare_bt(k_hist);
          started = true;
        } else {
          ASSERT_TRUE(gemm.append_bt_rows(inc, k_hist)) << tier.name << " t=" << t;
        }
        const PreparedOperand fresh = gemm.prepare_bt(k_hist);
        expect_same_operand(inc, fresh);
        expect_staged_energies(gemm, inc);

        const Matrix a = Matrix::random_gaussian(1, d, arng);
        const GemmResult got = gemm.multiply_prepared(a, inc);
        const GemmResult want = gemm.multiply(a, k_hist.transposed());
        expect_bit_identical(got.c, want.c, tier.name);
        EXPECT_EQ(got.b_scale, want.b_scale);
        expect_same_events(got.events, want.events);
        expect_same_guard(got.guard, want.guard);
      }
    }
  });
}

// Reduction-axis growth (B = V, the context operand): append_b_rows
// extends into padded column capacity; numerics, events, verdicts and the
// re-summed column energies must never see the padding.
TEST(KvPrepared, AppendBRowsBitIdenticalToFreshAcrossTiers) {
  const std::size_t lengths[] = {1, 3, 4, 7};
  for_each_tier_config([&](const TierCase& tier, const GemmConfig& cfg) {
    const auto drv = core::make_pdac_driver(8);
    const PhotonicGemm gemm(*drv, cfg);
    bool padded = false;
    for (std::size_t d : {std::size_t{8}, std::size_t{13}}) {
      const Matrix full = history_rows(7, d, 211 + d);
      Rng arng(11 * d);
      PreparedOperand inc;
      bool started = false;
      for (std::size_t t : lengths) {
        const Matrix v_hist = prefix_rows(full, t);
        if (!started) {
          inc = gemm.prepare_b(v_hist);
          started = true;
        } else {
          ASSERT_TRUE(gemm.append_b_rows(inc, v_hist)) << tier.name << " t=" << t;
        }
        padded = padded || inc.encoded.cols() > inc.rows;
        const PreparedOperand fresh = gemm.prepare_b(v_hist);
        expect_same_operand(inc, fresh);
        expect_staged_energies(gemm, inc);

        const Matrix a = Matrix::random_gaussian(1, t, arng);
        const GemmResult got = gemm.multiply_prepared(a, inc);
        const GemmResult want = gemm.multiply(a, v_hist);
        expect_bit_identical(got.c, want.c, tier.name);
        EXPECT_EQ(got.b_scale, want.b_scale);
        expect_same_events(got.events, want.events);
        expect_same_guard(got.guard, want.guard);
      }
    }
    EXPECT_TRUE(padded) << "no append ran into padded capacity";
  });

  // Resumed energies: on the tier that stages them (SIMD, full optics),
  // grow one row at a time from 1 to 40 rows, then by 13 rows at once, at 1
  // and 3 workers.  Every append continues each column's sum from where the
  // last one stopped; the energies must equal a fresh prepare's bit for bit
  // whatever the length mod the SIMD block, and the state is counted.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(testing::Message() << "simd resumed, threads " << threads);
    const auto drv = core::make_pdac_driver(8);
    const PhotonicGemm gemm(*drv, tier_config(kTiers[1], threads, true));
    for (std::size_t d : {std::size_t{8}, std::size_t{13}}) {
      const Matrix full = history_rows(53, d, 307 + d);
      PreparedOperand inc = gemm.prepare_b(prefix_rows(full, 1));
      EXPECT_TRUE(inc.energy_acc.empty());
      std::vector<std::size_t> growth;
      for (std::size_t t = 2; t <= 40; ++t) growth.push_back(t);
      growth.push_back(53);
      for (const std::size_t t : growth) {
        SCOPED_TRACE(testing::Message() << "d " << d << ", t " << t);
        const Matrix v_hist = prefix_rows(full, t);
        ASSERT_TRUE(gemm.append_b_rows(inc, v_hist));
        expect_same_operand(inc, gemm.prepare_b(v_hist));
        expect_staged_energies(gemm, inc);
        const std::size_t state = inc.energy_acc.size() * sizeof(double);
        EXPECT_EQ(state, d * simd::kDotSelfState * sizeof(double));
        PreparedOperand bare = inc;
        bare.energy_acc = {};
        EXPECT_EQ(inc.bytes() - bare.bytes(), state);
      }
    }
  }
}

// A product reads an operand's energies only when they were summed at the
// operand's current length.  Otherwise — energies left behind by an
// engine that stages none and grew the reduction axis — it sums its own,
// and the output is bit-identical to the tier's own prepare.  ADC off, so
// a wrong energy can move last bits.
TEST(KvPrepared, ProductsResumStaleEnergies) {
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg = tier_config(kTiers[1], 1, true);
  cfg.dot.adc_readout = false;
  const PhotonicGemm simd(*drv, cfg);
  cfg.path = ExecutionPath::kKernel;
  const PhotonicGemm scalar(*drv, cfg);

  const Matrix full = history_rows(7, 13, 57);
  Rng arng(13);
  const Matrix a = Matrix::random_gaussian(3, 7, arng);

  // A reduction-axis append by the scalar engine leaves the SIMD energies
  // at the old length; the SIMD product must not read them.
  PreparedOperand grown = simd.prepare_b(prefix_rows(full, 4));
  ASSERT_TRUE(scalar.append_b_rows(grown, full));
  EXPECT_FALSE(grown.has_energy());
  expect_bit_identical(simd.multiply_prepared(a, grown).c, simd.multiply(a, full).c,
                       "stale length");
  // A same-length confirm sums nothing, so products keep summing their own.
  ASSERT_TRUE(simd.append_b_rows(grown, full));
  EXPECT_FALSE(grown.has_energy());

  // An output-axis append can extend only energies it finds at the
  // operand's length: onto an operand that carries none it sums every
  // column.
  PreparedOperand keys = scalar.prepare_bt(prefix_rows(full, 4));
  ASSERT_TRUE(keys.energy.empty());
  ASSERT_TRUE(simd.append_bt_rows(keys, prefix_rows(full, 6)));
  expect_staged_energies(simd, keys);
  expect_same_operand(keys, simd.prepare_bt(prefix_rows(full, 6)));
}

// Every condition under which an append cannot be bit-identical must
// refuse and leave the operand untouched; a same-length "append" is an
// accepted no-op.
TEST(KvPrepared, AppendRefusesWheneverIdentityCannotHold) {
  // Scalar engine, and the SIMD tier under full optics, whose operands
  // carry column energies that a refusal must leave untouched too.
  const auto drv = core::make_pdac_driver(8);
  for (const GemmConfig& cfg : {tier_config(kTiers[0]), tier_config(kTiers[1], 1, true)}) {
    SCOPED_TRACE(cfg.dot.use_full_optics ? "simd, full optics" : "scalar");
    const PhotonicGemm gemm(*drv, cfg);
    const Matrix full = history_rows(4, 6, 31);
    const Matrix base = prefix_rows(full, 2);

    PreparedOperand pb = gemm.prepare_bt(base, /*epoch=*/3);
    const PreparedOperand snapshot = pb;
    EXPECT_EQ(snapshot.energy.empty(), !cfg.dot.use_full_optics);

    // Scale outgrown: a new row whose max-abs exceeds the recorded one
    // would change the fresh scale, so the append must refuse.
    Matrix louder = prefix_rows(full, 3);
    louder(2, 0) = 10.0 * pb.abs_max;
    EXPECT_FALSE(gemm.append_bt_rows(pb, louder, 3));
    expect_same_operand(pb, snapshot);

    // Epoch moved: the encoder state stamp no longer matches.
    EXPECT_FALSE(gemm.append_bt_rows(pb, prefix_rows(full, 3), 4));
    expect_same_operand(pb, snapshot);

    // Shrink and width mismatch are structural violations, not appends.
    EXPECT_FALSE(gemm.append_bt_rows(pb, prefix_rows(full, 1), 3));
    EXPECT_FALSE(gemm.append_bt_rows(pb, Matrix(3, 7), 3));
    expect_same_operand(pb, snapshot);

    // Same length is a valid no-op append.
    EXPECT_TRUE(gemm.append_bt_rows(pb, base, 3));
    expect_same_operand(pb, snapshot);

    // Channel packing: an operand stamped under one lane packing must not
    // append under another at the same epoch — neither through the faults
    // layer's packing nor through the engine, whose packing is fixed — on
    // either axis; under its own packing it appends.
    const RowEncoder copy_encoder = [](std::span<const double> norm, std::size_t,
                                       std::span<double> encoded, std::span<double>) {
      std::copy(norm.begin(), norm.end(), encoded.begin());
    };
    ThreadPool pool(1);
    Matrix stage;
    const OperandSpec packed{.epoch = 3, .channels = {0, 1, 2}, .checksum_stripe = 4};
    OperandSpec repacked = packed;
    repacked.channels = {0, 2};
    for (const GrowAxis axis : {GrowAxis::kCols, GrowAxis::kRows}) {
      const Matrix longer = prefix_rows(full, 3);
      PreparedOperand pk = prepare_operand(base, axis, packed, copy_encoder, pool, stage);
      const PreparedOperand ksnap = pk;
      EXPECT_FALSE(append_operand(pk, longer, axis, repacked, copy_encoder, pool, stage));
      expect_same_operand(pk, ksnap);
      EXPECT_FALSE(axis == GrowAxis::kCols ? gemm.append_bt_rows(pk, longer, 3)
                                           : gemm.append_b_rows(pk, longer, 3));
      expect_same_operand(pk, ksnap);
      EXPECT_TRUE(append_operand(pk, longer, axis, packed, copy_encoder, pool, stage));
      expect_same_operand(pk, prepare_operand(longer, axis, packed, copy_encoder, pool, stage));
    }

    // The rows axis enforces the same triggers.
    PreparedOperand pr = gemm.prepare_b(base, 3);
    const PreparedOperand rsnap = pr;
    EXPECT_FALSE(gemm.append_b_rows(pr, louder, 3));
    EXPECT_FALSE(gemm.append_b_rows(pr, prefix_rows(full, 3), 4));
    EXPECT_FALSE(gemm.append_b_rows(pr, prefix_rows(full, 1), 3));
    EXPECT_TRUE(gemm.append_b_rows(pr, base, 3));
    expect_same_operand(pr, rsnap);

    // Once a reduction-axis append has staged the energies' resume state,
    // refusals leave that untouched too.
    ASSERT_TRUE(gemm.append_b_rows(pr, prefix_rows(full, 3), 3));
    EXPECT_EQ(pr.energy_acc.empty(), !cfg.dot.use_full_optics);
    const PreparedOperand ssnap = pr;
    Matrix louder4 = prefix_rows(full, 4);
    louder4(3, 0) = 10.0 * pr.abs_max;
    EXPECT_FALSE(gemm.append_b_rows(pr, louder4, 3));
    EXPECT_FALSE(gemm.append_b_rows(pr, prefix_rows(full, 4), 4));
    EXPECT_FALSE(gemm.append_b_rows(pr, prefix_rows(full, 2), 3));
    expect_same_operand(pr, ssnap);
    EXPECT_EQ(pr.energy_acc, ssnap.energy_acc);

    // After the refusals a fresh rebuild still lands bit-identical to the
    // direct product — the caller's fallback is always sound.
    Rng arng(9);
    const Matrix a = Matrix::random_gaussian(1, 6, arng);
    const PreparedOperand rebuilt = gemm.prepare_bt(louder, 4);
    expect_bit_identical(gemm.multiply_prepared(a, rebuilt).c,
                         gemm.multiply(a, louder.transposed()).c, "rebuild fallback");
  }
}

// Appended operands are engine-thread-count invariant, like every other
// product: the same incremental sequence on 1 and 3 workers produces
// bit-identical operands, outputs and events.
TEST(KvPrepared, AppendThreadCountInvariance) {
  const auto drv1 = core::make_pdac_driver(8);
  const auto drv3 = core::make_pdac_driver(8);
  const PhotonicGemm gemm1(*drv1, tier_config(kTiers[0], 1));
  const PhotonicGemm gemm3(*drv3, tier_config(kTiers[0], 3));
  const Matrix full = history_rows(6, 10, 47);
  Rng arng(3);

  PreparedOperand inc1 = gemm1.prepare_bt(prefix_rows(full, 1));
  PreparedOperand inc3 = gemm3.prepare_bt(prefix_rows(full, 1));
  for (std::size_t t = 2; t <= 6; ++t) {
    const Matrix k_hist = prefix_rows(full, t);
    ASSERT_TRUE(gemm1.append_bt_rows(inc1, k_hist));
    ASSERT_TRUE(gemm3.append_bt_rows(inc3, k_hist));
    expect_same_operand(inc3, inc1);
    const Matrix a = Matrix::random_gaussian(2, 10, arng);
    const GemmResult r1 = gemm1.multiply_prepared(a, inc1);
    const GemmResult r3 = gemm3.multiply_prepared(a, inc3);
    expect_bit_identical(r3.c, r1.c, "threads 3 vs 1");
    expect_same_events(r3.events, r1.events);
    expect_same_guard(r3.guard, r1.guard);
  }
}

// ---------------------------------------------------------------------------
// KvCache: byte-capacity LRU accounting of KV-history entries (version 0).
// ---------------------------------------------------------------------------

std::shared_ptr<PreparedOperand> kv_operand(std::size_t elems) {
  auto op = std::make_shared<PreparedOperand>();
  op->encoded = Matrix(1, elems);
  return op;
}

TEST(KvCache, LruEvictionAndExactByteAccounting) {
  const std::size_t unit = kv_operand(64)->bytes();
  nn::OperandCache cache({.capacity_bytes = 3 * unit});

  EXPECT_EQ(cache.lookup(1, 0, 0), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  cache.insert(1, 0, kv_operand(64));
  cache.insert(2, 0, kv_operand(64));
  cache.insert(3, 0, kv_operand(64));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().resident_bytes, 3 * unit);

  // Touch 1 so 2 becomes LRU, then overflow: 2 must be the eviction.
  EXPECT_NE(cache.lookup(1, 0, 0), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.insert(4, 0, kv_operand(64));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().resident_bytes, 3 * unit);
  EXPECT_EQ(cache.lookup(2, 0, 0), nullptr);
  EXPECT_NE(cache.lookup(1, 0, 0), nullptr);
  EXPECT_NE(cache.lookup(3, 0, 0), nullptr);
  EXPECT_NE(cache.lookup(4, 0, 0), nullptr);

  // id 0 is reserved and refused.
  cache.insert(0, 0, kv_operand(8));
  EXPECT_EQ(cache.lookup(0, 0, 0), nullptr);
  EXPECT_EQ(cache.stats().resident_bytes, 3 * unit);

  // Oversized entries never become resident.
  const auto before = cache.stats().oversized_rejects;
  cache.insert(9, 0, kv_operand(4096));
  EXPECT_EQ(cache.stats().oversized_rejects, before + 1);
  EXPECT_EQ(cache.lookup(9, 0, 0), nullptr);
  EXPECT_EQ(cache.stats().resident_bytes, 3 * unit);
}

// ---------------------------------------------------------------------------
// KvAttention: MultiHeadAttention::forward_decode over a caching backend.
// ---------------------------------------------------------------------------

std::unique_ptr<nn::PhotonicBackend> attention_backend() {
  GemmConfig cfg;
  cfg.array_rows = 4;
  cfg.array_cols = 4;
  cfg.guard.enabled = true;
  return std::make_unique<nn::PhotonicBackend>(core::make_pdac_driver(8), cfg);
}

// Prepared decode must match unprepared decode bit-for-bit — outputs and
// events — at every step, with the first token dominating the history
// max-abs so later steps exercise the in-place append path.
TEST(KvAttention, DecodePreparedBitIdenticalToUnprepared) {
  const std::size_t d_model = 16;
  const std::size_t heads = 2;
  const std::size_t steps = 6;
  nn::MultiHeadAttention mha(d_model, heads);
  Rng wrng(21);
  mha.init_random(wrng);

  auto bp = attention_backend();
  auto bu = attention_backend();
  nn::AttentionKvState kvp = mha.make_kv_state();
  nn::AttentionKvState kvu = mha.make_kv_state();

  Rng xrng(5);
  for (std::size_t t = 0; t < steps; ++t) {
    // Token 0 is a loud ±1 row; later tokens are quiet, so the per-head
    // K/V max-abs recorded at step 0 is never outgrown.
    Matrix x(1, d_model);
    for (std::size_t c = 0; c < d_model; ++c) {
      x(0, c) = t == 0 ? (c % 2 == 0 ? 1.0 : -1.0) : 0.1 * xrng.gaussian();
    }
    const Matrix yp = mha.forward_decode(x, *bp, kvp, nn::KvDecodeMode::kPrepared);
    const Matrix yu = mha.forward_decode(x, *bu, kvu, nn::KvDecodeMode::kUnprepared);
    expect_bit_identical(yp, yu, "decode step");
    expect_same_events(bp->events(), bu->events());
  }
  EXPECT_EQ(kvp.tokens, steps);

  const nn::OperandCacheStats& st = bp->kv_cache()->stats();
  // Two handles per head; each serves one miss then steps-1 hits, and
  // with the loud first token every hit extends in place.
  EXPECT_EQ(st.misses, 2 * heads);
  EXPECT_EQ(st.hits, 2 * heads * (steps - 1));
  EXPECT_EQ(st.appends, st.hits);
  EXPECT_EQ(st.rebuilds, 0u);
  EXPECT_EQ(st.entries, 2 * heads);

  nn::MultiHeadAttention::release_kv_state(kvp, *bp);
  EXPECT_EQ(bp->kv_cache()->stats().entries, 0u);
  EXPECT_EQ(bp->kv_cache()->stats().invalidations, 2 * heads);
}

// With a zero-capacity KV cache every product re-prepares from scratch —
// the from-scratch bench mode — and must still be bit-identical.
TEST(KvAttention, DisabledCacheStillBitIdentical) {
  const std::size_t d_model = 16;
  nn::MultiHeadAttention mha(d_model, 2);
  Rng wrng(33);
  mha.init_random(wrng);

  GemmConfig cfg;
  cfg.array_rows = 4;
  cfg.array_cols = 4;
  nn::PhotonicBackend cold(core::make_pdac_driver(8), cfg, {}, {.capacity_bytes = 0});
  auto warm = attention_backend();

  nn::AttentionKvState kvc = mha.make_kv_state();
  nn::AttentionKvState kvw = mha.make_kv_state();
  Rng xrng(6);
  for (std::size_t t = 0; t < 4; ++t) {
    const Matrix x = Matrix::random_gaussian(1, d_model, xrng);
    const Matrix yc = mha.forward_decode(x, cold, kvc, nn::KvDecodeMode::kPrepared);
    const Matrix yw = mha.forward_decode(x, *warm, kvw, nn::KvDecodeMode::kPrepared);
    expect_bit_identical(yc, yw, "disabled cache step");
  }
  EXPECT_EQ(cold.kv_cache()->stats().entries, 0u);
  EXPECT_EQ(cold.kv_cache()->stats().hits, 0u);
}

faults::LaneBankConfig kv_bank_config(std::uint64_t seed = 5) {
  faults::LaneBankConfig cfg;
  cfg.pdac.bits = 8;
  cfg.wavelengths = 4;
  cfg.variation.tia_gain_sigma = 0.01;
  cfg.variation.bias_sigma = 0.002;
  cfg.variation.vpi_drift_sigma = 0.005;
  cfg.variation.seed = seed;
  return cfg;
}

// A mid-sequence epoch bump (what a real re-trim or fence emits): the
// guarded backend must drop the stale resident entries at lookup, prepare
// them afresh from the full history, and stay bit-identical to the unprepared
// replay throughout — on the scalar and SIMD tiers, with the full guard
// and with the column-only cheap mode (which stages no checksum stripes).
void guarded_epoch_bump_case(ExecutionPath path, bool column_only) {
  const std::size_t d_model = 16;
  const std::size_t heads = 2;
  const std::size_t steps = 6;
  nn::MultiHeadAttention mha(d_model, heads);
  Rng wrng(44);
  mha.init_random(wrng);

  // Identically-fabricated banks so both replicas see the same encoder
  // state; both sides re-trim at the same step to keep the trajectories
  // aligned.
  faults::LaneBank bank_p(kv_bank_config());
  faults::LaneBank bank_u(kv_bank_config());
  faults::production_trim(bank_p);
  faults::production_trim(bank_u);
  faults::GuardedBackendConfig gcfg;
  gcfg.array_rows = 4;
  gcfg.array_cols = 4;
  gcfg.path = path;
  gcfg.guard.column_only = column_only;
  faults::GuardedBackend gp(bank_p, gcfg);
  faults::GuardedBackend gu(bank_u, gcfg);

  nn::AttentionKvState kvp = mha.make_kv_state();
  nn::AttentionKvState kvu = mha.make_kv_state();
  Rng xrng(8);
  nn::OperandCacheStats before_bump;
  for (std::size_t t = 0; t < steps; ++t) {
    Matrix x(1, d_model);
    for (std::size_t c = 0; c < d_model; ++c) {
      x(0, c) = t == 0 ? (c % 2 == 0 ? 1.0 : -1.0) : 0.1 * xrng.gaussian();
    }
    if (t == 3) {
      // A healthy-bank force_retrim() leaves the epoch alone (nothing was
      // re-trimmed or fenced), so bump the epoch directly — the exact
      // signal a real re-trim/fence emits — on both replicas.
      before_bump = gp.kv_cache()->stats();
      bank_p.bump_epoch();
      bank_u.bump_epoch();
    }
    const Matrix yp = mha.forward_decode(x, gp, kvp, nn::KvDecodeMode::kPrepared);
    const Matrix yu = mha.forward_decode(x, gu, kvu, nn::KvDecodeMode::kUnprepared);
    expect_bit_identical(yp, yu, "guarded decode step");
    expect_same_events(gp.events(), gu.events());
  }
  // Every resident entry (two per head) went stale at the bump: each was
  // invalidated and missed exactly once, nothing was rebuilt, and appends
  // resumed afterwards.
  const nn::OperandCacheStats& st = gp.kv_cache()->stats();
  EXPECT_EQ(st.invalidations, before_bump.invalidations + 2 * heads);
  EXPECT_EQ(st.misses, before_bump.misses + 2 * heads);
  EXPECT_EQ(st.rebuilds, before_bump.rebuilds);
  EXPECT_GT(st.appends, before_bump.appends);

  nn::MultiHeadAttention::release_kv_state(kvp, gp);
  EXPECT_EQ(gp.kv_cache()->stats().entries, 0u);
}

TEST(KvAttention, GuardedEpochBumpRebuildsMidSequence) {
  for (const ExecutionPath path : {ExecutionPath::kKernel, ExecutionPath::kKernelSimd}) {
    for (const bool column_only : {false, true}) {
      SCOPED_TRACE(testing::Message() << "simd " << (path == ExecutionPath::kKernelSimd)
                                      << " column_only " << column_only);
      guarded_epoch_bump_case(path, column_only);
    }
  }
}

// ---------------------------------------------------------------------------
// KvServing: the engine's per-request KV path against the solo reference.
// ---------------------------------------------------------------------------

serve::WorkloadConfig kv_workload(std::size_t requests) {
  serve::WorkloadConfig wl;
  wl.requests = requests;
  wl.mean_interarrival = 16.0;
  wl.d_model = 16;
  wl.models = 2;
  wl.prompt_min = 2;
  wl.prompt_max = 8;
  wl.decode_min = 3;
  wl.decode_max = 8;
  wl.seed = 91;
  return wl;
}

std::vector<nn::Linear> make_models(std::size_t count, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<nn::Linear> models;
  models.reserve(count);
  for (std::size_t m = 0; m < count; ++m) {
    models.emplace_back(d, d);
    models.back().init_random(rng);
  }
  return models;
}

TEST(KvServing, EngineBitIdenticalToReferenceWithKvAttention) {
  const serve::WorkloadConfig wl = kv_workload(12);
  auto reqs = serve::generate_workload(wl);
  // Mix KV and plain requests so both decode paths share batches.
  for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].kv_attention = i % 3 != 2;
  auto models = make_models(wl.models, wl.d_model, 17);

  serve::BackendPoolConfig pool_cfg;
  pool_cfg.backends = 2;
  pool_cfg.bank = kv_bank_config(7);
  pool_cfg.guarded.array_rows = 8;
  pool_cfg.guarded.array_cols = 8;
  serve::BackendPool pool(pool_cfg);
  serve::ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.max_queue = reqs.size();
  serve::ServingEngine engine(pool, models, cfg);
  const serve::ServingReport rep = engine.run(reqs);

  EXPECT_EQ(rep.completed, reqs.size());
  EXPECT_TRUE(rep.reconciled(reqs.size()));

  faults::LaneBank ref_bank(pool_cfg.bank);
  faults::production_trim(ref_bank);
  faults::GuardedBackend ref_backend(ref_bank, pool_cfg.guarded);
  const auto ref = serve::run_reference(reqs, models, ref_backend);
  for (std::size_t q = 0; q < reqs.size(); ++q) {
    EXPECT_EQ(rep.records[q].digest, ref[q].digest) << "request " << q;
    EXPECT_EQ(rep.records[q].tokens_done, ref[q].tokens_done);
  }

  // The KV path actually ran through residency: lookups, appends (unit
  // max-abs K rows never outgrow the scale, so healthy backends extend
  // in place), and full release at request finalize.
  std::uint64_t hits = 0, appends = 0, misses = 0;
  for (const serve::BackendServeStats& bs : rep.backends) {
    hits += bs.kv.hits;
    appends += bs.kv.appends;
    misses += bs.kv.misses;
    EXPECT_EQ(bs.kv.entries, 0u) << "resident KV after finalize";
  }
  EXPECT_GT(misses, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(appends, hits);  // epoch-stable pool: every hit appends
}

TEST(KvServing, ReferenceIsDeterministicForKvRequests) {
  const serve::WorkloadConfig wl = kv_workload(6);
  auto reqs = serve::generate_workload(wl);
  for (auto& r : reqs) r.kv_attention = true;
  auto models = make_models(wl.models, wl.d_model, 17);

  faults::LaneBank bank_a(kv_bank_config(7));
  faults::LaneBank bank_b(kv_bank_config(7));
  faults::production_trim(bank_a);
  faults::production_trim(bank_b);
  faults::GuardedBackend ga(bank_a);
  faults::GuardedBackend gb(bank_b);
  const auto ra = serve::run_reference(reqs, models, ga);
  const auto rb = serve::run_reference(reqs, models, gb);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t q = 0; q < ra.size(); ++q) {
    EXPECT_EQ(ra[q].digest, rb[q].digest);
    EXPECT_EQ(ra[q].tokens_done, rb[q].tokens_done);
    EXPECT_GT(ra[q].tokens_done, 0u);
  }
}

}  // namespace
