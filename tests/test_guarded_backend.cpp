// Tests for the lane-bank GEMM backend, guarded and unguarded: bit-
// identity to an independent per-lane reference (unguarded at any thread
// count, guarded on clean hardware and after recovery), zero false
// positives, in-band detection of silent faults (pre-product and
// mid-product storms), the retry → re-trim → fence escalation ladder,
// and the operand-cache epoch interplay.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "converters/quantizer.hpp"
#include "faults/fault_injector.hpp"
#include "faults/guarded_backend.hpp"
#include "faults/self_test.hpp"
#include "ptc/tile_scheduler.hpp"

namespace {

using namespace pdac;

faults::LaneBankConfig small_bank_config(std::uint64_t seed = 5) {
  faults::LaneBankConfig cfg;
  cfg.pdac.bits = 8;
  cfg.wavelengths = 4;
  cfg.variation.tia_gain_sigma = 0.01;
  cfg.variation.bias_sigma = 0.002;
  cfg.variation.vpi_drift_sigma = 0.005;
  cfg.variation.seed = seed;
  return cfg;
}

faults::FaultSchedule one_event(std::size_t lanes, faults::FaultEvent ev,
                                std::uint64_t horizon = 8) {
  faults::FaultSchedule sched;
  sched.cfg.lanes = lanes;
  sched.cfg.bits = 8;
  sched.cfg.horizon_steps = horizon;
  sched.events.push_back(ev);
  return sched;
}

faults::FaultEvent stuck_mrr(std::size_t lane, std::uint64_t step = 1) {
  faults::FaultEvent ev;
  ev.step = step;
  ev.lane = lane;
  ev.kind = faults::FaultKind::kStuckMrr;
  ev.magnitude = 0.4;
  return ev;
}

void expect_matrices_equal(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]) << "element " << i;
  }
}

void expect_events_equal(const ptc::EventCounter& a, const ptc::EventCounter& b) {
  EXPECT_EQ(a.modulation_events, b.modulation_events);
  EXPECT_EQ(a.detection_events, b.detection_events);
  EXPECT_EQ(a.adc_events, b.adc_events);
  EXPECT_EQ(a.ddot_ops, b.ddot_ops);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.cycles, b.cycles);
}

/// Independent per-lane reference for a product through `bank` on tier
/// `path`: every element is encoded straight from LaneBank::encode (x
/// rail for A, y rail for B) on channel ch = surviving[p % n], with no
/// table, prepared operand or tiles.  Output (i, j) folds encoded row i
/// of A with encoded column j of B — in ascending p on kKernel, with one
/// simd::dot on kKernelSimd — times a_s·b_s.
Matrix lane_reference(const faults::LaneBank& bank, const Matrix& a, const Matrix& b,
                      ptc::ExecutionPath path = ptc::ExecutionPath::kKernel) {
  const std::vector<std::size_t> surviving = bank.surviving_channels();
  const double a_s = converters::max_abs_scale(a.data());
  const double b_s = converters::max_abs_scale(b.data());
  const std::size_t k = a.cols();
  Matrix ae(a.rows(), k);
  Matrix bte(b.cols(), k);
  for (std::size_t p = 0; p < k; ++p) {
    const std::size_t ch = surviving[p % surviving.size()];
    for (std::size_t i = 0; i < a.rows(); ++i) ae(i, p) = bank.encode(0, ch, a(i, p) / a_s);
    for (std::size_t j = 0; j < b.cols(); ++j) bte(j, p) = bank.encode(1, ch, b(p, j) / b_s);
  }
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      if (path == ptc::ExecutionPath::kKernelSimd) {
        acc = simd::dot(ae.row(i).data(), bte.row(j).data(), k);
      } else {
        for (std::size_t p = 0; p < k; ++p) acc += ae(i, p) * bte(j, p);
      }
      c(i, j) = acc * (a_s * b_s);
    }
  }
  return c;
}

/// The tile-step charge of one m×k·k×n product on the 8×8 array over
/// `lanes` surviving channels.
ptc::EventCounter product_events(std::size_t m, std::size_t k, std::size_t n,
                                 std::size_t lanes) {
  ptc::EventCounter ev;
  for (const ptc::Tile& tile : ptc::partition_tiles(m, n, 8, 8)) {
    ev += ptc::tile_step_events(tile.rows, tile.cols, k, lanes);
  }
  return ev;
}

/// Resident bytes of a guarded operand with `n` columns of reduction
/// length `k` prepared whole (no capacity padding) on the 8-wide array
/// over `lanes` channels: encodings, checksum stripes and packing, plus
/// a golden copy when `with_copy`.
std::size_t operand_bytes(std::size_t n, std::size_t k, std::size_t lanes, bool with_copy) {
  const std::size_t stripes = (n + 7) / 8;
  return sizeof(ptc::PreparedOperand) +
         ((with_copy ? 2 : 1) * n * k + stripes * k) * sizeof(double) +
         lanes * sizeof(std::size_t);
}

/// A ladder that may only give up: a detected product stays unrecovered
/// and its operand stays resident as it was built.
const faults::EscalationConfig kGiveUpAtOnce{
    .max_retries = 0, .max_retrims = 0, .allow_fence = false};

void expect_snapshots_equal(const faults::HealthSnapshot& a, const faults::HealthSnapshot& b) {
  EXPECT_EQ(a.products, b.products);
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.tiles_checked, b.tiles_checked);
  EXPECT_EQ(a.mismatched_tiles, b.mismatched_tiles);
  EXPECT_EQ(a.sec_corrections, b.sec_corrections);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retrims, b.retrims);
  EXPECT_EQ(a.fences, b.fences);
  EXPECT_EQ(a.unrecovered, b.unrecovered);
  EXPECT_EQ(a.drift_tiles, b.drift_tiles);
  EXPECT_EQ(a.drift_products, b.drift_products);
  EXPECT_EQ(a.worst_drift_ratio, b.worst_drift_ratio);
  EXPECT_EQ(a.proactive_retrims, b.proactive_retrims);
  EXPECT_EQ(a.governed_retrims, b.governed_retrims);
  EXPECT_EQ(a.probe_events, b.probe_events);
  EXPECT_EQ(a.detection_latency_tiles, b.detection_latency_tiles);
  EXPECT_EQ(a.worst_residual, b.worst_residual);
  EXPECT_EQ(a.worst_tolerance, b.worst_tolerance);
  expect_events_equal(a.checksum_events, b.checksum_events);
  expect_events_equal(a.retry_events, b.retry_events);
  EXPECT_EQ(a.lane_mismatches, b.lane_mismatches);
}

TEST(GuardedBackend, UnguardedMatchesLaneReferenceAtAnyThreadCount) {
  // Guard off, the backend is the plain lane executor: on a bank with
  // injected faults and a fenced channel every entry point — matmul,
  // matmul_cached (cold and warm) and matmul_kv on both axes as the
  // history grows — equals the independent lane reference of its tier bit
  // for bit at any thread count, charges exactly the tile-step events
  // over the survivors, and records nothing in the monitor.
  faults::FaultSchedule sched = one_event(8, stuck_mrr(2), 16);
  faults::FaultEvent tia;
  tia.step = 3;
  tia.lane = 5;
  tia.kind = faults::FaultKind::kTiaGainStep;
  tia.magnitude = 1.3;
  tia.bit = 2;
  sched.events.push_back(tia);

  for (const auto& [path, threads] : {std::pair{ptc::ExecutionPath::kKernel, std::size_t{1}},
                                      std::pair{ptc::ExecutionPath::kKernel, std::size_t{4}},
                                      std::pair{ptc::ExecutionPath::kKernelSimd, std::size_t{1}},
                                      std::pair{ptc::ExecutionPath::kKernelSimd, std::size_t{4}}}) {
    SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)) + ", threads " +
                 std::to_string(threads));
    faults::LaneBank bank(small_bank_config());
    faults::production_trim(bank);
    faults::FaultInjector injector(bank, sched);
    injector.advance_to(16);
    ASSERT_EQ(injector.events_applied(), 2u);
    bank.lane(1, 3).fenced = true;  // channel 3 loses its y rail
    bank.bump_epoch();
    const std::size_t lanes = bank.usable_channels();
    ASSERT_EQ(lanes, 3u);

    faults::GuardedBackendConfig cfg;
    cfg.guard.enabled = false;
    cfg.threads = threads;
    cfg.path = path;
    faults::GuardedBackend backend(bank, cfg);
    ptc::EventCounter want_events;

    Rng rng(3);
    const Matrix a = Matrix::random_gaussian(13, 18, rng, 0.0, 1.0);
    const Matrix b = Matrix::random_gaussian(18, 11, rng, 0.0, 1.0);
    const Matrix want = lane_reference(bank, a, b, path);
    expect_matrices_equal(backend.matmul(a, b), want);
    const nn::WeightHandle w{3, 1};
    expect_matrices_equal(backend.matmul_cached(a, b, w), want);
    expect_matrices_equal(backend.matmul_cached(a, b, w), want);
    EXPECT_EQ(backend.cache().stats().hits, 1u);
    for (int i = 0; i < 3; ++i) want_events += product_events(13, 18, 11, lanes);

    // Decode-style growth: scores against K (the kv IS Bᵀ), context
    // against V (rows extend the reduction axis).
    const std::size_t d = 10;
    Matrix keys(0, d);
    for (std::size_t t = 1; t <= 9; ++t) {
      Matrix grown(t, d);
      for (std::size_t r = 0; r + 1 < t; ++r) {
        for (std::size_t c = 0; c < d; ++c) grown(r, c) = keys(r, c);
      }
      for (std::size_t c = 0; c < d; ++c) grown(t - 1, c) = rng.gaussian(0.0, 0.5);
      keys = grown;
      const Matrix q = Matrix::random_gaussian(2, d, rng, 0.0, 1.0);
      expect_matrices_equal(backend.matmul_kv(q, keys, {1, nn::KvAxis::kCols}),
                            lane_reference(bank, q, keys.transposed(), path));
      const Matrix probs = Matrix::random_gaussian(2, t, rng, 0.0, 1.0);
      expect_matrices_equal(backend.matmul_kv(probs, keys, {2, nn::KvAxis::kRows}),
                            lane_reference(bank, probs, keys, path));
      want_events += product_events(2, d, t, lanes);
      want_events += product_events(2, t, d, lanes);
    }
    EXPECT_GT(backend.kv_cache()->stats().appends, 0u);

    expect_events_equal(backend.events(), want_events);
    EXPECT_EQ(backend.monitor().snapshot().products, 0u);
    EXPECT_EQ(backend.monitor().snapshot().checksum_events.modulation_events, 0u);
  }
}

TEST(GuardedBackend, CleanBankBitIdenticalToLaneReference) {
  // On healthy hardware the guard must be pure observation, on either
  // tier: the data path equals the tier's independent lane reference bit
  // for bit, the data-path events match the unguarded backend's field for
  // field, and every tile verifies.  The SIMD tier also charges the
  // scalar tier's events field for field and lands within the guard band
  // of the scalar tier's outputs.
  Rng rng(3);
  const Matrix a = Matrix::random_gaussian(13, 18, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(18, 11, rng, 0.0, 1.0);

  Matrix scalar_out;
  ptc::EventCounter scalar_events;
  for (const ptc::ExecutionPath path :
       {ptc::ExecutionPath::kKernel, ptc::ExecutionPath::kKernelSimd}) {
    SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)));
    faults::LaneBank bank(small_bank_config());
    faults::production_trim(bank);
    faults::GuardedBackend guarded(bank, {.path = path});
    faults::GuardedBackend unguarded(bank, {.guard = {.enabled = false}, .path = path});

    const Matrix got = guarded.matmul(a, b);
    expect_matrices_equal(got, lane_reference(bank, a, b, path));
    (void)unguarded.matmul(a, b);
    expect_events_equal(guarded.events(), unguarded.events());

    const faults::HealthSnapshot& snap = guarded.monitor().snapshot();
    EXPECT_EQ(snap.products, 1u);
    EXPECT_EQ(snap.detections, 0u);
    EXPECT_EQ(snap.mismatched_tiles, 0u);
    EXPECT_GT(snap.tiles_checked, 0u);
    EXPECT_GT(snap.checksum_events.modulation_events, 0u);
    EXPECT_LT(snap.worst_residual, snap.worst_tolerance);

    // Golden is pinned at the bank's epoch, so it holds the current
    // table's bits and no operand stages a second golden copy: the cached
    // weight and both KV operands carry none, and the caches' resident
    // bytes are the encodings, stripes and packing alone.
    const nn::WeightHandle w{21, 1};
    expect_matrices_equal(guarded.matmul_cached(a, b, w), got);
    const auto weight = guarded.cache().lookup(w.id, w.version, bank.epoch());
    ASSERT_NE(weight, nullptr);
    EXPECT_EQ(weight->reference.size(), 0u);
    EXPECT_EQ(guarded.cache().stats().resident_bytes, operand_bytes(11, 18, 4, false));
    const Matrix keys = Matrix::random_gaussian(9, 18, rng, 0.0, 1.0);
    const Matrix probs = Matrix::random_gaussian(13, 9, rng, 0.0, 1.0);
    expect_matrices_equal(guarded.matmul_kv(a, keys, {1, nn::KvAxis::kCols}),
                          lane_reference(bank, a, keys.transposed(), path));
    expect_matrices_equal(guarded.matmul_kv(probs, keys, {2, nn::KvAxis::kRows}),
                          lane_reference(bank, probs, keys, path));
    EXPECT_EQ(guarded.kv_cache()->stats().resident_bytes,
              operand_bytes(9, 18, 4, false) + operand_bytes(18, 9, 4, false));
    EXPECT_EQ(guarded.monitor().snapshot().detections, 0u);

    if (path == ptc::ExecutionPath::kKernel) {
      scalar_out = got;
      scalar_events = guarded.events();
      continue;
    }
    expect_events_equal(guarded.events(), scalar_events);
    ASSERT_EQ(got.size(), scalar_out.size());
    const double band = ptc::guard_tolerance(ptc::GuardConfig{}, a.cols(), 1,
                                             static_cast<double>(a.cols()));
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got.data()[i], scalar_out.data()[i], band) << "element " << i;
    }
  }
}

TEST(GuardedBackend, CleanRunBitIdenticalAtAnyThreadCount) {
  Rng rng(7);
  const Matrix a = Matrix::random_gaussian(17, 20, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(20, 13, rng, 0.0, 1.0);

  faults::LaneBank ref_bank(small_bank_config());
  faults::production_trim(ref_bank);
  faults::GuardedBackend serial(ref_bank);
  const Matrix want = serial.matmul(a, b);

  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    faults::LaneBank bank(small_bank_config());
    faults::production_trim(bank);
    faults::GuardedBackendConfig cfg;
    cfg.threads = threads;
    faults::GuardedBackend wide(bank, cfg);
    expect_matrices_equal(wide.matmul(a, b), want);
    expect_events_equal(wide.events(), serial.events());
    EXPECT_EQ(wide.monitor().snapshot().detections, 0u);
  }
}

TEST(GuardedBackend, CachedProductBitIdenticalAndServedFromCache) {
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackend backend(bank);
  Rng rng(9);
  const Matrix a = Matrix::random_gaussian(9, 16, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(16, 9, rng, 0.0, 1.0);
  const nn::WeightHandle w{11, 1};

  const Matrix uncached = backend.matmul(a, b);
  const Matrix first = backend.matmul_cached(a, b, w);
  const Matrix second = backend.matmul_cached(a, b, w);
  expect_matrices_equal(first, uncached);
  expect_matrices_equal(second, uncached);
  EXPECT_EQ(backend.cache().stats().misses, 1u);
  EXPECT_EQ(backend.cache().stats().hits, 1u);
  EXPECT_EQ(backend.monitor().snapshot().detections, 0u);
}

TEST(GuardedBackend, ZeroFalsePositivesOverTenThousandCleanTiles) {
  // Acceptance gate on the live-bank path: golden snapshots and current
  // lane state coincide on healthy hardware, so ≥ 10k verified tiles
  // across many shapes must produce zero detections.
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackend backend(bank);
  std::size_t products = 0;
  for (std::uint64_t seed = 1; backend.monitor().snapshot().tiles_checked < 10000; ++seed) {
    Rng rng(seed);
    const std::size_t k = 6 + (seed % 7);
    const Matrix a = Matrix::random_gaussian(77 + (seed % 8), k, rng, 0.0, 1.0);
    const Matrix b = Matrix::random_gaussian(k, 77 + ((seed * 3) % 8), rng, 0.0, 1.0);
    (void)backend.matmul(a, b);
    ++products;
  }
  const faults::HealthSnapshot& snap = backend.monitor().snapshot();
  EXPECT_GE(snap.tiles_checked, 10000u);
  EXPECT_EQ(snap.mismatched_tiles, 0u);
  EXPECT_EQ(snap.detections, 0u);
  EXPECT_EQ(snap.products, products);
  EXPECT_LT(snap.worst_residual, 0.5 * snap.worst_tolerance);
}

TEST(GuardedBackend, PreProductStuckMrrDetectedAndRecovered) {
  // A fault that lands BETWEEN products silently corrupts the next one:
  // data encodes through the stuck lane while the references come from
  // the golden snapshot, so detection fires in the first pass, the
  // ladder climbs retry → re-trim (self-test fences the dead lane), and
  // the re-run on survivors matches the lane reference bit for bit.
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackend backend(bank);
  faults::FaultInjector injector(bank, one_event(bank.lanes(), stuck_mrr(3)));
  injector.advance_to(8);

  Rng rng(5);
  const Matrix a = Matrix::random_gaussian(16, 16, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(16, 16, rng, 0.0, 1.0);
  const Matrix got = backend.matmul(a, b);

  const faults::HealthSnapshot& snap = backend.monitor().snapshot();
  EXPECT_EQ(snap.detections, 1u);
  EXPECT_GT(snap.mismatched_tiles, 0u);
  EXPECT_EQ(snap.retries, 1u);   // retry re-runs through the still-stuck lane
  EXPECT_EQ(snap.retrims, 1u);   // the self-test rung then fences it
  EXPECT_EQ(snap.unrecovered, 0u);
  EXPECT_GT(snap.probe_events, 0u);
  ASSERT_GT(snap.lane_mismatches.size(), 3u);
  EXPECT_GE(snap.lane_mismatches[3], 1u);
  EXPECT_TRUE(bank.lane(3).fenced);
  EXPECT_GT(snap.retry_events.macs, 0u);

  // Recovered output is a faithful degraded product, not best-effort
  // garbage: bit-identical to the lane reference on the recovered bank
  // and numerically close to the exact product.
  expect_matrices_equal(got, lane_reference(bank, a, b));
  const auto err = stats::compare(got.data(), matmul_reference(a, b).data());
  EXPECT_GT(err.cosine, 0.99);
}

TEST(GuardedBackend, DeadPdBitIsDetectedAndRecovered) {
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackend backend(bank);
  faults::FaultEvent ev;
  ev.step = 1;
  ev.lane = 5;  // y rail of channel 1
  ev.kind = faults::FaultKind::kDeadPd;
  ev.bit = 7;  // MSB: every negative code loses its largest weight
  faults::FaultInjector injector(bank, one_event(bank.lanes(), ev));
  injector.advance_to(8);

  Rng rng(19);
  const Matrix a = Matrix::random_gaussian(16, 12, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(12, 16, rng, 0.0, 1.0);
  const Matrix got = backend.matmul(a, b);

  const faults::HealthSnapshot& snap = backend.monitor().snapshot();
  EXPECT_EQ(snap.detections, 1u);
  EXPECT_EQ(snap.unrecovered, 0u);
  EXPECT_TRUE(bank.lane(5).fenced);
  const auto err = stats::compare(got.data(), matmul_reference(a, b).data());
  EXPECT_GT(err.cosine, 0.99);
}

TEST(GuardedBackend, FenceRungMatchesDegradedRerunBitIdentically) {
  // Ladder clamped to the fence rung: the golden-table readback must
  // fence exactly the diverged lane, attribute it in the monitor, bump
  // the epoch, and the guarded re-run on the survivors must equal the
  // lane reference on the post-fence bank bit for bit.
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackendConfig cfg;
  cfg.escalation.max_retries = 0;
  cfg.escalation.max_retrims = 0;
  cfg.escalation.allow_fence = true;
  faults::GuardedBackend backend(bank, cfg);
  faults::FaultInjector injector(bank, one_event(bank.lanes(), stuck_mrr(3)));
  injector.advance_to(8);
  const std::uint64_t epoch_before = bank.epoch();

  Rng rng(23);
  const Matrix a = Matrix::random_gaussian(12, 16, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(16, 12, rng, 0.0, 1.0);
  const Matrix got = backend.matmul(a, b);

  const faults::HealthSnapshot& snap = backend.monitor().snapshot();
  EXPECT_EQ(snap.retries, 0u);
  EXPECT_EQ(snap.retrims, 0u);
  EXPECT_EQ(snap.fences, 1u);
  EXPECT_EQ(snap.unrecovered, 0u);
  EXPECT_GT(snap.probe_events, 0u);
  EXPECT_TRUE(bank.lane(3).fenced);
  // Only the diverged lane is fenced — healthy implicated lanes survive
  // the readback untouched.
  EXPECT_EQ(bank.fenced_lanes(), 1u);
  ASSERT_GT(snap.lane_mismatches.size(), 3u);
  EXPECT_EQ(snap.lane_mismatches[3], 1u);
  EXPECT_GT(bank.epoch(), epoch_before);

  expect_matrices_equal(got, lane_reference(bank, a, b));
}

TEST(GuardedBackend, ExhaustedLadderReturnsBestEffortAndCountsUnrecovered) {
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackendConfig cfg;
  cfg.escalation.max_retries = 0;
  cfg.escalation.max_retrims = 0;
  cfg.escalation.allow_fence = false;  // every rung disabled
  faults::GuardedBackend backend(bank, cfg);
  faults::FaultInjector injector(bank, one_event(bank.lanes(), stuck_mrr(2)));
  injector.advance_to(8);

  Rng rng(29);
  const Matrix a = Matrix::random_gaussian(8, 12, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(12, 8, rng, 0.0, 1.0);
  const Matrix got = backend.matmul(a, b);

  const faults::HealthSnapshot& snap = backend.monitor().snapshot();
  EXPECT_EQ(snap.detections, 1u);
  EXPECT_EQ(snap.unrecovered, 1u);
  EXPECT_FALSE(bank.lane(2).fenced);  // nothing was allowed to act
  // Best-effort output is returned (not zeroed) — the caller sees the
  // corruption through the monitor, not through a silent blank.
  double max_abs = 0.0;
  for (double v : got.data()) max_abs = std::max(max_abs, std::abs(v));
  EXPECT_GT(max_abs, 0.0);
}

TEST(GuardedBackend, StormDetectsMidProductFaultInAffectedTile) {
  // A storm advances the injector's clock before every tile step, so a
  // fault scheduled at step S strikes between tiles: every tile before
  // it verifies, detection fires exactly at the first tile encoded after
  // the strike, and the ladder still recovers the product.  The strike
  // hits either rail — x lane 3 corrupts the A rows, y lane 5 the B
  // columns — at steps on and beside the row-stripe edges of the 10×10
  // tile grid, so a stale operand stripe on either side would let a
  // corrupted tile verify.
  Rng rng(31);
  // 80×80 outputs on the 8×8 array: 100 serialized tile steps.
  const Matrix a = Matrix::random_gaussian(80, 16, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(16, 80, rng, 0.0, 1.0);
  const Matrix want = matmul_reference(a, b);

  for (const std::size_t lane : {std::size_t{3}, std::size_t{5}}) {
    for (const std::uint64_t fault_step : {1u, 10u, 11u, 42u, 100u}) {
      SCOPED_TRACE("lane " + std::to_string(lane) + ", step " + std::to_string(fault_step));
      faults::LaneBank bank(small_bank_config());
      faults::production_trim(bank);
      faults::GuardedBackend backend(bank);
      faults::FaultInjector injector(bank,
                                     one_event(bank.lanes(), stuck_mrr(lane, fault_step), 256));
      backend.attach_storm(&injector, 1);
      const Matrix got = backend.matmul(a, b);

      const faults::HealthSnapshot& snap = backend.monitor().snapshot();
      EXPECT_EQ(snap.products, 1u);
      EXPECT_EQ(snap.detections, 1u);
      // The clock reads t+1 before tile t, so step S lands before tile
      // S−1 — detection latency is the S tiles scanned up to and
      // including it.
      EXPECT_DOUBLE_EQ(snap.mean_detection_latency(), static_cast<double>(fault_step));
      // Tiles before the strike stayed clean; everything after mismatched.
      EXPECT_EQ(snap.mismatched_tiles, 101u - fault_step);
      EXPECT_EQ(snap.unrecovered, 0u);
      EXPECT_TRUE(bank.lane(lane).fenced);

      const auto err = stats::compare(got.data(), want.data());
      EXPECT_GT(err.cosine, 0.99);
    }
  }
}

TEST(GuardedBackend, UnguardedStormTilesMatchLaneReferenceOfTheirStep) {
  // A storm step re-encodes its stale stripes through the live lane
  // models until the stale elements met at the current epoch reach
  // lanes · codes (8 · 255 = 2040 here), then rebuilds the current lane
  // table and reads it.  Every route must give the bits of the lanes as
  // they stand at that step: with the guard off, every tile before the
  // strike equals the clean bank's lane reference and every tile from it
  // on the struck bank's, bit for bit.  On the 3 × 3 tile grid one
  // strike makes at most 6 stripes stale: k = 16 stays on the live models
  // (6 · 8 · 16 = 768 elements), k = 96 re-encodes the first stale step
  // live (1536) and rebuilds at the second (2304), and k = 320 rebuilds
  // at the first.
  Rng rng(59);
  for (const ptc::ExecutionPath path :
       {ptc::ExecutionPath::kKernel, ptc::ExecutionPath::kKernelSimd}) {
    for (const std::size_t k : {std::size_t{16}, std::size_t{96}, std::size_t{320}}) {
      const Matrix a = Matrix::random_gaussian(24, k, rng, 0.0, 1.0);
      const Matrix b = Matrix::random_gaussian(k, 24, rng, 0.0, 1.0);
      // x lane 3 corrupts A rows, y lane 5 B columns; step 2 lands before
      // tile 1 (mid row stripe), step 5 before tile 4 (a fresh one).
      for (const std::size_t lane : {std::size_t{3}, std::size_t{5}}) {
        for (const std::uint64_t step : {2u, 5u}) {
          SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)) + ", k " +
                       std::to_string(k) + ", lane " + std::to_string(lane) + ", step " +
                       std::to_string(step));
          const faults::FaultSchedule sched = one_event(8, stuck_mrr(lane, step), 64);
          faults::LaneBank clean(small_bank_config());
          faults::production_trim(clean);
          faults::LaneBank struck(small_bank_config());
          faults::production_trim(struck);
          faults::FaultInjector(struck, sched).advance_to(step);
          const Matrix before = lane_reference(clean, a, b, path);
          const Matrix after = lane_reference(struck, a, b, path);

          faults::LaneBank bank(small_bank_config());
          faults::production_trim(bank);
          faults::GuardedBackendConfig cfg;
          cfg.guard.enabled = false;
          cfg.path = path;
          faults::GuardedBackend backend(bank, cfg);
          faults::FaultInjector injector(bank, sched);
          backend.attach_storm(&injector, 1);
          const Matrix got = backend.matmul(a, b);
          ASSERT_EQ(injector.events_applied(), 1u);

          // The clock reads t + 1 before tile t, so the strike at `step`
          // lands before tile step − 1.
          const std::vector<ptc::Tile> tiles = ptc::partition_tiles(24, 24, 8, 8);
          for (std::size_t t = 0; t < tiles.size(); ++t) {
            const Matrix& want = t + 1 < step ? before : after;
            for (std::size_t i = tiles[t].row0; i < tiles[t].row0 + tiles[t].rows; ++i) {
              for (std::size_t j = tiles[t].col0; j < tiles[t].col0 + tiles[t].cols; ++j) {
                ASSERT_EQ(got(i, j), want(i, j)) << "tile " << t << " (" << i << ", " << j << ")";
              }
            }
          }
        }
      }
    }
  }
}

TEST(GuardedBackend, QuietStormProductEqualsStormFreeProduct) {
  // A storm whose injector fires nothing inside the product must be pure
  // observation: output, data-path events and the whole health snapshot
  // match a storm-free backend bit for bit, on the scalar and SIMD tiers.
  // The pre-struck case strikes before the product on both banks, so the
  // ladder's rungs run on both sides too.  (These are the two tiers a
  // lane bank accepts.)
  Rng rng(43);
  const Matrix a = Matrix::random_gaussian(20, 24, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(24, 28, rng, 0.0, 1.0);

  for (const ptc::ExecutionPath path :
       {ptc::ExecutionPath::kKernel, ptc::ExecutionPath::kKernelSimd}) {
    for (const bool pre_struck : {false, true}) {
      SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)) + ", pre-struck " +
                   std::to_string(pre_struck));
      faults::GuardedBackendConfig cfg;
      cfg.path = path;
      faults::LaneBank storm_bank(small_bank_config());
      faults::production_trim(storm_bank);
      // Strikes at step 1 when pre-struck; otherwise long after the
      // product's 12 tile steps.
      const faults::FaultSchedule sched =
          one_event(storm_bank.lanes(), stuck_mrr(2, pre_struck ? 1 : 1000), 2048);
      faults::GuardedBackend storm_backend(storm_bank, cfg);
      faults::FaultInjector storm_injector(storm_bank, sched);
      storm_injector.advance_to(1);
      storm_backend.attach_storm(&storm_injector, 1);
      const Matrix got = storm_backend.matmul(a, b);
      ASSERT_EQ(storm_injector.events_applied(), pre_struck ? 1u : 0u);

      faults::LaneBank free_bank(small_bank_config());
      faults::production_trim(free_bank);
      faults::GuardedBackend free_backend(free_bank, cfg);
      faults::FaultInjector free_injector(free_bank, sched);
      free_injector.advance_to(1);
      const Matrix want = free_backend.matmul(a, b);

      expect_matrices_equal(got, want);
      expect_events_equal(storm_backend.events(), free_backend.events());
      expect_snapshots_equal(storm_backend.monitor().snapshot(),
                             free_backend.monitor().snapshot());
      EXPECT_EQ(storm_backend.monitor().snapshot().detections, pre_struck ? 1u : 0u);
    }
  }
}

TEST(GuardedBackend, EpochBumpInvalidatesCachedOperandAndGuardStillFires) {
  // Weight-stationary interplay: the injector's epoch bump forces a
  // re-prepare (no stale encodings escape the cache), and because the
  // golden snapshot predates the fault, the freshly prepared product is
  // still caught and recovered.
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackend backend(bank);
  Rng rng(37);
  const Matrix a = Matrix::random_gaussian(12, 16, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(16, 12, rng, 0.0, 1.0);
  const nn::WeightHandle w{7, 1};

  (void)backend.matmul_cached(a, b, w);  // miss + insert
  (void)backend.matmul_cached(a, b, w);  // hit
  EXPECT_EQ(backend.cache().stats().hits, 1u);
  EXPECT_EQ(backend.monitor().snapshot().detections, 0u);

  faults::FaultInjector injector(bank, one_event(bank.lanes(), stuck_mrr(1)));
  injector.advance_to(8);  // mutates lanes AND bumps the bank epoch
  const std::uint64_t struck_epoch = bank.epoch();

  const Matrix recovered = backend.matmul_cached(a, b, w);
  EXPECT_GE(backend.cache().stats().invalidations, 1u);
  const faults::HealthSnapshot& snap = backend.monitor().snapshot();
  EXPECT_EQ(snap.detections, 1u);
  EXPECT_DOUBLE_EQ(snap.mean_detection_latency(), 1.0);  // the strike precedes tile 0
  EXPECT_EQ(snap.unrecovered, 0u);
  const auto err = stats::compare(recovered.data(), matmul_reference(a, b).data());
  EXPECT_GT(err.cosine, 0.99);

  // The re-trim's self-test moved the epoch and golden was re-pinned
  // there, so the operand the rung re-prepared and cached stages no
  // golden copy.
  EXPECT_EQ(snap.retrims, 1u);
  EXPECT_EQ(snap.fences, 0u);
  EXPECT_GT(bank.epoch(), struck_epoch);
  const auto repinned = backend.cache().lookup(w.id, w.version, bank.epoch());
  ASSERT_NE(repinned, nullptr);
  EXPECT_EQ(repinned->reference.size(), 0u);

  // Recovery re-warmed the cache against the repaired bank: the next
  // product hits and verifies cleanly.
  const std::uint64_t hits_before = backend.cache().stats().hits;
  const Matrix again = backend.matmul_cached(a, b, w);
  EXPECT_EQ(backend.cache().stats().hits, hits_before + 1);
  EXPECT_EQ(backend.monitor().snapshot().detections, 1u);
  expect_matrices_equal(again, recovered);

  // The operand the strike's miss builds: golden predates the epoch, so
  // it stages its golden copy, and the guard fires at the first tile.  A
  // ladder that may only give up leaves it resident to be looked at.
  faults::LaneBank held_bank(small_bank_config());
  faults::production_trim(held_bank);
  faults::GuardedBackend held(held_bank, {.escalation = kGiveUpAtOnce});
  (void)held.matmul_cached(a, b, w);
  faults::FaultInjector held_injector(held_bank, one_event(held_bank.lanes(), stuck_mrr(1)));
  held_injector.advance_to(8);
  (void)held.matmul_cached(a, b, w);
  const faults::HealthSnapshot& held_snap = held.monitor().snapshot();
  EXPECT_EQ(held_snap.detections, 1u);
  EXPECT_DOUBLE_EQ(held_snap.mean_detection_latency(), 1.0);
  EXPECT_EQ(held_snap.unrecovered, 1u);
  const auto struck = held.cache().lookup(w.id, w.version, held_bank.epoch());
  ASSERT_NE(struck, nullptr);
  EXPECT_EQ(struck->reference.rows(), struck->encoded.rows());
  EXPECT_EQ(struck->reference.cols(), struck->encoded.cols());
}

TEST(GuardedBackend, GoldenRepinAtTheSameEpochRebuildsAnEntryThatCarriesACopy) {
  // A strike leaves golden behind the epoch, so the KV entry built next
  // stages a golden copy.  recalibrate() then re-pins golden without
  // moving the epoch: the spec stages no copy any more, the append
  // refuses the entry's copy, and the entry is rebuilt from the current
  // golden — one more hit and one more rebuild, no append, no copy, and
  // the product of an uncached operand, bit for bit.
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackend backend(bank, {.escalation = kGiveUpAtOnce});
  Rng rng(41);
  const std::size_t d = 12;
  const Matrix q = Matrix::random_gaussian(3, d, rng, 0.0, 1.0);
  const Matrix keys = Matrix::random_gaussian(10, d, rng, 0.0, 1.0);
  Matrix grown(11, d);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < d; ++c) grown(r, c) = keys(r, c);
  }
  for (std::size_t c = 0; c < d; ++c) grown(10, c) = 0.5 * keys(0, c);  // within the scale
  const nn::KvHandle handle{5, nn::KvAxis::kCols};

  faults::FaultInjector injector(bank, one_event(bank.lanes(), stuck_mrr(1)));
  injector.advance_to(8);
  (void)backend.matmul_kv(q, keys, handle);
  const nn::OperandCacheStats built = backend.kv_cache()->stats();
  EXPECT_EQ(built.misses, 1u);
  EXPECT_EQ(built.resident_bytes, operand_bytes(10, d, 4, true));

  const std::uint64_t epoch = bank.epoch();
  backend.recalibrate();
  ASSERT_EQ(bank.epoch(), epoch);
  const Matrix got = backend.matmul_kv(q, grown, handle);
  const nn::OperandCacheStats& st = backend.kv_cache()->stats();
  EXPECT_EQ(st.hits, built.hits + 1);
  EXPECT_EQ(st.rebuilds, built.rebuilds + 1);
  EXPECT_EQ(st.appends, built.appends);
  EXPECT_EQ(st.misses, built.misses);
  EXPECT_TRUE(backend.kv_cache()->contains(handle.id, 0, epoch));
  EXPECT_EQ(st.resident_bytes, operand_bytes(11, d, 4, false));  // no copy staged
  expect_matrices_equal(got, backend.matmul(q, grown.transposed()));
}

TEST(GuardedBackend, SecCorrectsSingleDotUpsetWithoutSpendingARung) {
  // A transient single-detector glitch flags exactly one row lane and
  // one column lane with agreeing residuals — the SEC signature.  The
  // guard repairs the intersection digitally: no retry, no re-trim, no
  // detection escalation, and the corrected output matches the clean run
  // to floating-point noise (the residual estimate carries the checksum
  // sum's rounding, so exact bit-identity is not promised).
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::LaneBank clean_bank(small_bank_config());
  faults::production_trim(clean_bank);
  faults::GuardedBackend backend(bank);
  faults::GuardedBackend clean(clean_bank);
  Rng rng(23);
  const Matrix a = Matrix::random_gaussian(6, 12, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(12, 7, rng, 0.0, 1.0);
  const Matrix want = clean.matmul(a, b);

  backend.inject_dot_upset({2, 3, 0.5});
  const Matrix got = backend.matmul(a, b);

  const faults::HealthSnapshot snap = backend.monitor().snapshot();
  EXPECT_EQ(snap.sec_corrections, 1u);
  EXPECT_EQ(snap.mismatched_tiles, 0u);  // corrected tiles are not mismatches
  EXPECT_EQ(snap.detections, 0u);
  EXPECT_EQ(snap.retries, 0u);
  EXPECT_EQ(snap.retrims, 0u);
  EXPECT_EQ(snap.unrecovered, 0u);
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-9) << "element " << i;
  }
}

TEST(GuardedBackend, TwoUpsetsLackTheSecSignatureAndRetryClearsThem) {
  // Two glitches on distinct rows and columns flag two row lanes and two
  // column lanes — not correctable, so the ladder's retry rung fires.
  // The upsets are transient (initial pass only), so the retry re-run is
  // clean and bit-identical to an unfaulted backend.
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::LaneBank clean_bank(small_bank_config());
  faults::production_trim(clean_bank);
  faults::GuardedBackend backend(bank);
  faults::GuardedBackend clean(clean_bank);
  Rng rng(29);
  const Matrix a = Matrix::random_gaussian(6, 12, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(12, 7, rng, 0.0, 1.0);
  const Matrix want = clean.matmul(a, b);

  backend.inject_dot_upset({1, 2, 0.5});
  backend.inject_dot_upset({4, 5, -0.4});
  const Matrix got = backend.matmul(a, b);

  const faults::HealthSnapshot snap = backend.monitor().snapshot();
  EXPECT_EQ(snap.sec_corrections, 0u);
  EXPECT_EQ(snap.detections, 1u);
  EXPECT_GE(snap.retries, 1u);
  EXPECT_EQ(snap.retrims, 0u);  // transient: the first re-run verifies
  EXPECT_EQ(snap.unrecovered, 0u);
  expect_matrices_equal(got, want);
}

TEST(GuardedBackend, SecDisabledFallsBackToTheRetryRung) {
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackendConfig cfg;
  cfg.guard.sec_correction = false;
  faults::GuardedBackend backend(bank, cfg);
  Rng rng(31);
  const Matrix a = Matrix::random_gaussian(6, 12, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(12, 7, rng, 0.0, 1.0);

  backend.inject_dot_upset({2, 3, 0.5});
  (void)backend.matmul(a, b);

  const faults::HealthSnapshot snap = backend.monitor().snapshot();
  EXPECT_EQ(snap.sec_corrections, 0u);
  EXPECT_EQ(snap.detections, 1u);
  EXPECT_GE(snap.retries, 1u);
  EXPECT_EQ(snap.unrecovered, 0u);
}

TEST(GuardedBackend, ColumnOnlyGuardHalvesChecksumChargeAndStillDetects) {
  // The cheap guard mode drops the row-lane stripes: the spare checksum
  // charge shrinks (w instead of h+w lanes per tile) while the data path
  // stays bit-identical, and a real lane fault is still caught because
  // every output column it touches diverges from the golden reference.
  faults::LaneBank full_bank(small_bank_config());
  faults::production_trim(full_bank);
  faults::LaneBank col_bank(small_bank_config());
  faults::production_trim(col_bank);
  faults::GuardedBackendConfig col_cfg;
  col_cfg.guard.column_only = true;
  faults::GuardedBackend full(full_bank);
  faults::GuardedBackend col_only(col_bank, col_cfg);
  Rng rng(37);
  const Matrix a = Matrix::random_gaussian(9, 12, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(12, 10, rng, 0.0, 1.0);

  expect_matrices_equal(col_only.matmul(a, b), full.matmul(a, b));
  const auto full_ev = full.monitor().snapshot().checksum_events;
  const auto col_ev = col_only.monitor().snapshot().checksum_events;
  EXPECT_LT(col_ev.adc_events, full_ev.adc_events);
  EXPECT_LT(col_ev.ddot_ops, full_ev.ddot_ops);
  EXPECT_EQ(col_ev.modulation_events * 2, full_ev.modulation_events);

  // Pre-product stuck MRR: the column-only guard must still detect and
  // recover in-band.
  faults::LaneBank fault_bank(small_bank_config());
  faults::production_trim(fault_bank);
  faults::GuardedBackend guarded(fault_bank, col_cfg);
  faults::FaultInjector injector(fault_bank,
                                 one_event(fault_bank.lanes(), stuck_mrr(2, 0)));
  injector.advance_to(1);
  (void)guarded.matmul(a, b);
  const faults::HealthSnapshot snap = guarded.monitor().snapshot();
  EXPECT_EQ(snap.detections, 1u);
  EXPECT_EQ(snap.unrecovered, 0u);
}

TEST(GuardedBackend, ColumnOnlyGuardCannotCorrectAndRetriesInstead) {
  // SEC needs the row×column residual intersection; without row lanes a
  // single-dot upset escalates through the ladder like any mismatch.
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackendConfig cfg;
  cfg.guard.column_only = true;
  faults::GuardedBackend backend(bank, cfg);
  Rng rng(41);
  const Matrix a = Matrix::random_gaussian(6, 12, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(12, 7, rng, 0.0, 1.0);

  backend.inject_dot_upset({2, 3, 0.5});
  (void)backend.matmul(a, b);

  const faults::HealthSnapshot snap = backend.monitor().snapshot();
  EXPECT_EQ(snap.sec_corrections, 0u);
  EXPECT_EQ(snap.detections, 1u);
  EXPECT_GE(snap.retries, 1u);
  EXPECT_EQ(snap.unrecovered, 0u);
}

TEST(GuardedBackend, FullyFencedBankIsAnOutage) {
  // A bank with every channel fenced is offline: all-zero output, no
  // events, no product recorded.
  faults::LaneBank bank(small_bank_config());
  for (std::size_t i = 0; i < bank.lanes(); ++i) bank.lane(i).fenced = true;
  bank.bump_epoch();
  faults::GuardedBackend backend(bank);
  Rng rng(3);
  const Matrix a = Matrix::random_gaussian(2, 4, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(4, 2, rng, 0.0, 1.0);
  const Matrix out = backend.matmul(a, b);
  for (double v : out.data()) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(backend.events().cycles, 0u);
  EXPECT_EQ(backend.monitor().snapshot().products, 0u);
}

TEST(GuardedBackend, RejectsTheDeviceGraphPath) {
  // A lane bank has no device graph to stage chunks through, and the
  // integer tier is retired, so a request for either tier must fail
  // loudly instead of running the SIMD dots.
  faults::LaneBank bank(small_bank_config());
  faults::GuardedBackendConfig cfg;
  for (const ptc::ExecutionPath path :
       {ptc::ExecutionPath::kDeviceGraph, ptc::ExecutionPath::kKernelQuant}) {
    cfg.path = path;
    EXPECT_THROW(faults::GuardedBackend(bank, cfg), PreconditionError);
  }
  for (const ptc::ExecutionPath path :
       {ptc::ExecutionPath::kKernel, ptc::ExecutionPath::kKernelSimd}) {
    cfg.path = path;
    EXPECT_NO_THROW(faults::GuardedBackend(bank, cfg));
  }
}

}  // namespace
