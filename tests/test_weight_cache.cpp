// Prepared-operand cache (DESIGN.md §10, §17): multiply_prepared must be
// bit-identical to multiply — numerics AND event counts — at any thread
// count, bit width and tile shape; the one operand cache must account
// hits/misses/appends/rebuilds/evictions/invalidations and resident bytes
// exactly, for weights and growing KV history alike; and every
// fault-injection, re-trim or fence must reach the products of the
// unguarded lane-bank backend, whose cached codes stay resident.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "faults/fault_injector.hpp"
#include "faults/guarded_backend.hpp"
#include "faults/lane_bank.hpp"
#include "faults/self_test.hpp"
#include "nn/backend.hpp"
#include "nn/linear.hpp"
#include "nn/operand_cache.hpp"
#include "ptc/gemm_engine.hpp"

namespace {

using namespace pdac;
using namespace pdac::ptc;

void expect_bit_identical(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
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

std::shared_ptr<PreparedOperand> dummy_operand(std::size_t elems) {
  auto op = std::make_shared<PreparedOperand>();
  op->encoded = Matrix(1, elems);
  return op;
}

TEST(MultiplyPrepared, BitIdenticalAcrossShapesThreadsAndBits) {
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 48, 32}, {5, 33, 17}, {9, 8, 9}, {1, 7, 1}};
  for (int bits : {4, 8}) {
    const auto drv = core::make_pdac_driver(bits);
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      for (const auto& s : shapes) {
        GemmConfig cfg;
        cfg.threads = threads;
        cfg.array_rows = 4;
        cfg.array_cols = 4;
        const PhotonicGemm gemm(*drv, cfg);
        Rng rng(17 * s.m + s.n + static_cast<std::size_t>(bits));
        const Matrix a = Matrix::random_gaussian(s.m, s.k, rng);
        const Matrix b = Matrix::random_gaussian(s.k, s.n, rng);

        const GemmResult direct = gemm.multiply(a, b);
        const PreparedOperand pb = gemm.prepare_b(b);
        const GemmResult prepared = gemm.multiply_prepared(a, pb);

        expect_bit_identical(prepared.c, direct.c, "prepared vs direct");
        EXPECT_EQ(prepared.a_scale, direct.a_scale);
        EXPECT_EQ(prepared.b_scale, direct.b_scale);
        expect_same_events(prepared.events, direct.events);
        expect_same_events(prepared.events, gemm.count_events(s.m, s.k, s.n));
      }
    }
  }
}

TEST(MultiplyPrepared, BitIdenticalOnFullOpticsPath) {
  const auto drv = core::make_pdac_driver(6);
  GemmConfig cfg;
  cfg.dot.use_full_optics = true;
  cfg.dot.adc_readout = true;
  cfg.threads = 2;
  const PhotonicGemm gemm(*drv, cfg);
  Rng rng(5);
  const Matrix a = Matrix::random_gaussian(6, 19, rng);
  const Matrix b = Matrix::random_gaussian(19, 11, rng);
  const GemmResult direct = gemm.multiply(a, b);
  const GemmResult prepared = gemm.multiply_prepared(a, gemm.prepare_b(b));
  expect_bit_identical(prepared.c, direct.c, "full optics");
  expect_same_events(prepared.events, direct.events);
}

TEST(MultiplyPrepared, PreparedOperandReusableAcrossManyAOperands) {
  const auto drv = core::make_pdac_driver(8);
  const PhotonicGemm gemm(*drv, {});
  Rng rng(11);
  const Matrix b = Matrix::random_gaussian(24, 10, rng);
  const PreparedOperand pb = gemm.prepare_b(b);
  for (int t = 0; t < 4; ++t) {
    const Matrix a = Matrix::random_gaussian(1 + static_cast<std::size_t>(t), 24, rng);
    expect_bit_identical(gemm.multiply_prepared(a, pb).c, gemm.multiply(a, b).c,
                         "reused prepared B");
  }
}

// The engine reuses per-call scratch buffers; alternating shapes must
// never leak state between products.
TEST(MultiplyPrepared, ScratchReuseAcrossAlternatingShapes) {
  const auto drv = core::make_pdac_driver(8);
  const PhotonicGemm gemm(*drv, {});
  Rng rng(23);
  const Matrix a1 = Matrix::random_gaussian(7, 31, rng);
  const Matrix b1 = Matrix::random_gaussian(31, 13, rng);
  const Matrix a2 = Matrix::random_gaussian(2, 9, rng);
  const Matrix b2 = Matrix::random_gaussian(9, 21, rng);
  const Matrix first = gemm.multiply(a1, b1).c;
  const Matrix second = gemm.multiply(a2, b2).c;
  expect_bit_identical(gemm.multiply(a1, b1).c, first, "repeat large after small");
  expect_bit_identical(gemm.multiply(a2, b2).c, second, "repeat small after large");
}

TEST(OperandCache, HitMissAndVersionInvalidation) {
  nn::OperandCache cache;
  EXPECT_EQ(cache.lookup(1, 1), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  cache.insert(1, 1, dummy_operand(8));
  EXPECT_NE(cache.lookup(1, 1), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Content-version mismatch: entry erased, miss reported.
  EXPECT_EQ(cache.lookup(1, 2), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The stale entry is really gone — a lookup with the OLD version
  // misses too.
  EXPECT_EQ(cache.lookup(1, 1), nullptr);
}

TEST(OperandCache, ContainsIsAPureProbe) {
  nn::OperandCacheConfig cfg;
  const std::size_t one = dummy_operand(64)->bytes();
  cfg.capacity_bytes = 2 * one;
  nn::OperandCache cache(cfg);
  cache.insert(1, 1, dummy_operand(64));
  cache.insert(2, 1, dummy_operand(64));

  EXPECT_TRUE(cache.contains(1, 1));
  EXPECT_FALSE(cache.contains(1, 2));  // stale content version
  EXPECT_FALSE(cache.contains(3, 1));  // never inserted
  EXPECT_FALSE(cache.contains(0, 1));  // id 0 is uncacheable

  // No stats mutation and no stale-entry eviction: the scheduler probes
  // without perturbing the cache.
  const nn::OperandCacheStats before = cache.stats();
  for (int i = 0; i < 8; ++i) (void)cache.contains(1, 2);
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);
  EXPECT_EQ(cache.stats().invalidations, before.invalidations);
  EXPECT_EQ(cache.stats().entries, 2u);

  // No LRU refresh either: probing entry 1 must not save it from
  // eviction — a lookup() would have.
  EXPECT_TRUE(cache.contains(1, 1));
  cache.insert(3, 1, dummy_operand(64));  // evicts 1, still least recent
  EXPECT_FALSE(cache.contains(1, 1));
  EXPECT_TRUE(cache.contains(2, 1));
  EXPECT_TRUE(cache.contains(3, 1));
}

TEST(OperandCache, LruEvictionByBytes) {
  nn::OperandCacheConfig cfg;
  const std::size_t one = dummy_operand(64)->bytes();
  cfg.capacity_bytes = 3 * one;
  nn::OperandCache cache(cfg);
  cache.insert(1, 1, dummy_operand(64));
  cache.insert(2, 1, dummy_operand(64));
  cache.insert(3, 1, dummy_operand(64));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_NE(cache.lookup(1, 1), nullptr);  // refresh 1 → LRU order 1,3,2

  cache.insert(4, 1, dummy_operand(64));  // evicts 2, the least recent
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.lookup(2, 1), nullptr);
  EXPECT_NE(cache.lookup(1, 1), nullptr);
  EXPECT_NE(cache.lookup(3, 1), nullptr);
  EXPECT_NE(cache.lookup(4, 1), nullptr);
  EXPECT_LE(cache.stats().resident_bytes, cfg.capacity_bytes);
}

TEST(OperandCache, OversizedOperandIsRejectedUpFront) {
  nn::OperandCacheConfig cfg;
  cfg.capacity_bytes = 64;  // smaller than any real operand
  nn::OperandCache cache(cfg);
  cache.insert(1, 1, dummy_operand(1024));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  // Refused before touching the LRU list — not admitted-then-evicted.
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().oversized_rejects, 1u);
}

TEST(OperandCache, OversizedInsertLeavesResidentsUntouched) {
  nn::OperandCacheConfig cfg;
  const std::size_t one = dummy_operand(64)->bytes();
  cfg.capacity_bytes = 2 * one;
  nn::OperandCache cache(cfg);
  cache.insert(1, 1, dummy_operand(64));
  cache.insert(2, 1, dummy_operand(64));
  const std::uint64_t resident = cache.stats().resident_bytes;

  // The regression: this insert used to flush both residents AND the
  // newcomer — a full cache wipe for an operand that can never fit.
  cache.insert(3, 1, dummy_operand(1024));
  EXPECT_EQ(cache.stats().oversized_rejects, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().resident_bytes, resident);
  EXPECT_NE(cache.lookup(1, 1), nullptr);
  EXPECT_NE(cache.lookup(2, 1), nullptr);
  EXPECT_EQ(cache.lookup(3, 1), nullptr);
}

TEST(OperandCache, DisabledCacheStoresNothing) {
  // Capacity 0 is the disabled cache: every operand is oversized, so
  // nothing becomes resident and every lookup misses.
  nn::OperandCacheConfig cfg;
  cfg.capacity_bytes = 0;
  nn::OperandCache cache(cfg);
  cache.insert(1, 1, dummy_operand(8));
  EXPECT_EQ(cache.lookup(1, 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().oversized_rejects, 1u);
}

TEST(OperandCache, EraseAndClear) {
  nn::OperandCache cache;
  cache.insert(1, 0, dummy_operand(8));
  cache.insert(2, 0, dummy_operand(8));
  cache.erase(1);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.lookup(1, 0), nullptr);
  // clear() drops everything but counts no invalidations.
  cache.clear();
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST(OperandCache, HandleIdsAreUniqueAndNonzero) {
  const std::uint64_t a = nn::next_kv_id();
  const std::uint64_t b = nn::next_kv_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(OperandCache, ObtainReaccountsGrownEntries) {
  const std::size_t unit = dummy_operand(64)->bytes();
  nn::OperandCacheConfig cfg;
  cfg.capacity_bytes = 3 * unit;
  nn::OperandCache cache(cfg);
  const auto build = [] { return *dummy_operand(64); };
  const auto keep = [](PreparedOperand&) { return true; };
  const auto grow_to = [](std::size_t elems) {
    return [elems](PreparedOperand& op) {
      op.encoded = Matrix(1, elems);
      op.rows = elems;
      return true;
    };
  };

  const std::shared_ptr<PreparedOperand> grows = cache.obtain(1, 0, keep, build);
  (void)cache.obtain(2, 0, keep, build);
  const std::uint64_t resident = cache.stats().resident_bytes;

  // The fresh entry grew in place (an append): obtain must re-account
  // the bytes and evict the LRU victim to get back under capacity.
  EXPECT_EQ(cache.obtain(1, 0, grow_to(3 * 64), build), grows);
  EXPECT_EQ(cache.stats().appends, 1u);
  EXPECT_GT(cache.stats().resident_bytes, resident);
  EXPECT_EQ(cache.stats().resident_bytes, grows->bytes());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.contains(2, 0));
  EXPECT_TRUE(cache.contains(1, 0));

  // Growing past the whole capacity drops the entry outright.
  (void)cache.obtain(1, 0, grow_to(4096), build);
  EXPECT_FALSE(cache.contains(1, 0));
  EXPECT_EQ(cache.stats().oversized_rejects, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

// One cache, one obtain flow, one accounting rule: a weight (versioned,
// confirmed by a same-length append) and a growing KV history (version
// 0, extended by appends) taken through every branch — absent, fresh,
// refused grow, stale version, uncached — with the resident bytes
// reconciled after each step.
TEST(OperandCache, ObtainLifecycleForWeightsAndKv) {
  const RowEncoder copy_encoder = [](std::span<const double> norm, std::span<double> encoded) {
    std::copy(norm.begin(), norm.end(), encoded.begin());
  };
  ThreadPool pool(1);
  Matrix stage;
  const OperandSpec spec{};
  std::size_t builds = 0;
  nn::OperandCache cache;
  const auto obtain = [&](std::uint64_t id, std::uint64_t version, const Matrix& src,
                          GrowAxis axis) {
    return cache.obtain(
        id, version,
        [&](PreparedOperand& op) {
          return append_operand(op, src, axis, spec, copy_encoder, pool, stage);
        },
        [&] {
          ++builds;
          return prepare_operand(src, axis, spec, copy_encoder, pool, stage);
        });
  };

  Rng rng(12);
  const Matrix weight = Matrix::random_gaussian(6, 4, rng);
  // KV history in Bᵀ orientation (scores): a loud first row keeps the
  // recorded max-abs, so later quiet rows append.
  Matrix history(8, 4);
  for (std::size_t c = 0; c < 4; ++c) history(0, c) = c % 2 == 0 ? 1.0 : -1.0;
  for (std::size_t r = 1; r < 8; ++r) {
    for (std::size_t c = 0; c < 4; ++c) history(r, c) = 0.1 * rng.gaussian();
  }
  const auto rows = [&](std::size_t n) {
    Matrix m(n, history.cols());
    std::copy(history.data().begin(),
              history.data().begin() + static_cast<std::ptrdiff_t>(m.size()), m.data().begin());
    return m;
  };
  const std::uint64_t kWeight = 7;
  const std::uint64_t kKv = nn::next_kv_id();
  const nn::OperandCacheStats& st = cache.stats();

  // Absent: a miss and a build each.
  std::shared_ptr<PreparedOperand> w = obtain(kWeight, 1, weight, GrowAxis::kRows);
  std::shared_ptr<PreparedOperand> kv = obtain(kKv, 0, rows(3), GrowAxis::kCols);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(builds, 2u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.resident_bytes, w->bytes() + kv->bytes());

  // Fresh: the weight is a hit the same-length append only confirms; the
  // KV history is a hit that appends and re-accounts its grown bytes.
  const std::uint64_t kv_bytes = kv->bytes();
  EXPECT_EQ(obtain(kWeight, 1, weight, GrowAxis::kRows), w);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.appends, 0u);
  EXPECT_EQ(obtain(kKv, 0, rows(5), GrowAxis::kCols), kv);
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.appends, 1u);
  EXPECT_EQ(kv->cols, 5u);
  EXPECT_GT(kv->bytes(), kv_bytes);
  EXPECT_EQ(builds, 2u);
  EXPECT_EQ(st.resident_bytes, w->bytes() + kv->bytes());

  // Refused grow: a louder history row would change the fresh scale, so
  // the append refuses the fresh hit and obtain rebuilds it in place.
  Matrix louder = rows(6);
  louder(5, 0) = 4.0;
  const std::shared_ptr<PreparedOperand> kv_old = kv;
  kv = obtain(kKv, 0, louder, GrowAxis::kCols);
  EXPECT_NE(kv, kv_old);
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.rebuilds, 1u);
  EXPECT_EQ(st.appends, 1u);
  EXPECT_EQ(st.invalidations, 0u);
  EXPECT_EQ(builds, 3u);
  EXPECT_EQ(kv->cols, 6u);
  EXPECT_EQ(kv->scale, 4.0);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.resident_bytes, w->bytes() + kv->bytes());

  // Stale version (the weight's contents changed): the entry is
  // invalidated at lookup, misses and is built afresh.
  w = obtain(kWeight, 2, weight, GrowAxis::kRows);
  EXPECT_EQ(st.invalidations, 1u);
  EXPECT_EQ(st.misses, 3u);
  EXPECT_EQ(st.rebuilds, 1u);
  EXPECT_EQ(builds, 4u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.resident_bytes, w->bytes() + kv->bytes());

  // id 0 builds without touching the cache or its counters.
  const nn::OperandCacheStats before = st;
  (void)obtain(0, 0, weight, GrowAxis::kRows);
  EXPECT_EQ(builds, 5u);
  EXPECT_EQ(st.hits, before.hits);
  EXPECT_EQ(st.misses, before.misses);
  EXPECT_EQ(st.entries, before.entries);
  EXPECT_EQ(st.resident_bytes, before.resident_bytes);
}

TEST(PhotonicBackendCache, WarmForwardBitIdenticalAndAccounted) {
  nn::PhotonicBackend backend(core::make_pdac_driver(8), {});
  nn::Linear layer(12, 9);
  Rng rng(3);
  layer.init_random(rng);
  const Matrix x = Matrix::random_gaussian(4, 12, rng);

  const Matrix cold = layer.forward(x, backend);
  const auto cold_events = backend.events();
  EXPECT_EQ(backend.operand_cache()->stats().misses, 1u);

  backend.reset_events();
  const Matrix warm = layer.forward(x, backend);
  expect_bit_identical(warm, cold, "warm vs cold forward");
  EXPECT_EQ(backend.operand_cache()->stats().hits, 1u);
  // The cache is a simulator-speed optimization: the modeled hardware
  // events are identical cold and warm.
  expect_same_events(backend.events(), cold_events);

  // Mutable weight access invalidates: next forward re-prepares.
  layer.weight()(0, 0) += 0.5;
  const Matrix changed = layer.forward(x, backend);
  EXPECT_EQ(backend.operand_cache()->stats().invalidations, 1u);
  bool any_diff = false;
  for (std::size_t i = 0; i < changed.size(); ++i) {
    any_diff = any_diff || changed.data()[i] != cold.data()[i];
  }
  EXPECT_TRUE(any_diff) << "weight mutation must reach the output";
}

TEST(PhotonicBackendCache, PlainMatmulBypassesTheCache) {
  nn::PhotonicBackend backend(core::make_pdac_driver(8), {});
  Rng rng(9);
  const Matrix a = Matrix::random_gaussian(3, 8, rng);
  const Matrix b = Matrix::random_gaussian(8, 5, rng);
  (void)backend.matmul(a, b);
  (void)backend.matmul(a, b);
  EXPECT_EQ(backend.operand_cache()->stats().entries, 0u);
  EXPECT_EQ(backend.operand_cache()->stats().hits, 0u);
}

TEST(LinearHandles, CopiesGetFreshIdentity) {
  nn::Linear a(4, 4);
  const nn::Linear b = a;
  EXPECT_NE(a.weight_handle().id, 0u);
  EXPECT_NE(a.weight_handle().id, b.weight_handle().id);
  const auto before = a.weight_handle().version;
  a.weight()(0, 0) = 1.0;
  EXPECT_NE(a.weight_handle().version, before);
  EXPECT_EQ(a.weight_handle().id, nn::Linear(std::move(a)).weight_handle().id);
}

faults::GuardedBackendConfig unguarded() {
  faults::GuardedBackendConfig cfg;
  cfg.guard.enabled = false;
  return cfg;
}

faults::LaneBankConfig varied_bank_config(std::size_t wavelengths) {
  faults::LaneBankConfig cfg;
  cfg.pdac.bits = 8;
  cfg.wavelengths = wavelengths;
  cfg.variation.tia_gain_sigma = 0.03;
  cfg.variation.bias_sigma = 0.004;
  cfg.variation.vpi_drift_sigma = 0.01;
  cfg.variation.seed = 77;
  return cfg;
}

TEST(UnguardedBackendCache, WarmMatchesColdAndUncached) {
  faults::LaneBank bank(varied_bank_config(6));
  faults::production_trim(bank);
  faults::GuardedBackend cached(bank, unguarded());
  faults::GuardedBackend uncached(bank, unguarded());

  nn::Linear layer(10, 7);
  Rng rng(13);
  layer.init_random(rng);
  const Matrix x = Matrix::random_gaussian(3, 10, rng);

  const Matrix cold = layer.forward(x, cached);
  const Matrix warm = layer.forward(x, cached);
  EXPECT_EQ(cached.operand_cache()->stats().hits, 1u);
  expect_bit_identical(warm, cold, "degraded warm vs cold");
  expect_bit_identical(warm, layer.forward(x, uncached), "vs uncached backend");
}

// The acceptance-critical property: a re-trim between decode steps
// rewrites the lanes, and the cached codes — still a hit — are decoded
// through the re-trimmed lanes, so the cached path stays bit-identical
// to a cache-free backend on the post-trim bank.  (The pre-trim encoding
// differs — serving it stale WOULD change the output.)
TEST(UnguardedBackendCache, RetrimBetweenStepsReachesTheCachedCodes) {
  faults::LaneBank bank(varied_bank_config(6));  // untrimmed: variation in play
  faults::GuardedBackend cached(bank, unguarded());

  nn::Linear layer(12, 8);
  Rng rng(29);
  layer.init_random(rng);
  const Matrix x = Matrix::random_gaussian(1, 12, rng);  // decode-style GEMV

  const Matrix before = layer.forward(x, cached);  // cache is now warm
  const std::uint64_t epoch_before = bank.epoch();

  // Recalibration between decode steps (the self-test re-trims every
  // lane the screen flags; production_trim is the stronger variant that
  // rewrites every lane unconditionally).
  faults::production_trim(bank);
  EXPECT_GT(bank.epoch(), epoch_before);

  const Matrix after = layer.forward(x, cached);
  EXPECT_EQ(cached.operand_cache()->stats().hits, 1u);
  EXPECT_EQ(cached.operand_cache()->stats().invalidations, 0u);

  // Fresh backend on the *post-trim* bank = ground truth without any
  // cache history; a stale encoding could not match it.
  faults::GuardedBackend fresh(bank, unguarded());
  expect_bit_identical(after, layer.forward(x, fresh), "post-trim vs fresh backend");

  // And the trim genuinely changed the encoding, so reuse would have
  // been wrong — pin that the outputs differ across the trim.
  bool any_diff = false;
  for (std::size_t i = 0; i < after.size(); ++i) {
    any_diff = any_diff || after.data()[i] != before.data()[i];
  }
  EXPECT_TRUE(any_diff) << "trim should alter lane transfer curves";
}

TEST(UnguardedBackendCache, FaultInjectionBetweenStepsReachesTheCachedCodes) {
  faults::LaneBank bank(varied_bank_config(4));
  faults::production_trim(bank);

  faults::FaultScheduleConfig sched;
  sched.lanes = bank.lanes();
  sched.bits = 8;
  sched.horizon_steps = 64;
  sched.drift_fault_rate = 0.8;
  sched.bias_walk_sigma_per_step = 0.01;
  sched.seed = 5;
  faults::FaultInjector injector(bank, faults::generate_fault_schedule(sched));

  faults::GuardedBackend cached(bank, unguarded());
  nn::Linear layer(9, 6);
  Rng rng(31);
  layer.init_random(rng);
  const Matrix x = Matrix::random_gaussian(2, 9, rng);

  (void)layer.forward(x, cached);  // warm
  injector.advance_to(32);         // drift mutates lanes → epoch bump

  const Matrix after = layer.forward(x, cached);
  EXPECT_EQ(cached.operand_cache()->stats().hits, 1u);
  faults::GuardedBackend fresh(bank, unguarded());
  expect_bit_identical(after, layer.forward(x, fresh), "post-fault vs fresh backend");
}

// A fence applied directly to a lane (no epoch bump) still reaches the
// next product, which reads its packing from the bank.
TEST(UnguardedBackendCache, DirectFenceReachesTheNextProduct) {
  faults::LaneBank bank(varied_bank_config(5));
  faults::production_trim(bank);
  faults::GuardedBackend cached(bank, unguarded());

  nn::Linear layer(8, 5);
  Rng rng(41);
  layer.init_random(rng);
  const Matrix x = Matrix::random_gaussian(2, 8, rng);

  (void)layer.forward(x, cached);   // warm
  bank.lane(0, 2).fenced = true;    // direct mutation, deliberately no bump

  // The codes hold whatever the packing: the entry is a hit, and the
  // product runs on the surviving channels.
  const Matrix after = layer.forward(x, cached);
  EXPECT_EQ(cached.operand_cache()->stats().hits, 1u);
  EXPECT_EQ(cached.operand_cache()->stats().rebuilds, 0u);
  EXPECT_EQ(cached.operand_cache()->stats().invalidations, 0u);
  faults::GuardedBackend fresh(bank, unguarded());
  expect_bit_identical(after, layer.forward(x, fresh), "post-fence vs fresh backend");
}

TEST(UnguardedBackendCache, SelfTestEpochBump) {
  faults::LaneBank bank(varied_bank_config(6));
  // Untrimmed + wide variation: the screen will flag lanes and re-trim.
  const std::uint64_t before = bank.epoch();
  faults::SelfTestConfig st;
  st.error_budget = 0.02;
  const auto report = faults::run_self_test(bank, st);
  if (report.retrims > 0 || report.dead > 0) {
    EXPECT_GT(bank.epoch(), before);
  }
}

}  // namespace
