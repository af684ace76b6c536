// Tests for the lane-bank GEMM backend, guarded and unguarded: bit-
// identity to an independent per-lane reference (unguarded at any thread
// count, guarded on clean hardware and after recovery), zero false
// positives, in-band detection of silent faults (pre-product and
// mid-product storms), the retry → re-trim → fence escalation ladder,
// and the operand-cache epoch interplay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
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
#include "ptc/kernel.hpp"
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
/// `lanes` surviving channels, under the executors' rule (B broadcast,
/// one ADC sample per output), summed tile by tile over the scheduler's
/// partition.
ptc::EventCounter product_events(std::size_t m, std::size_t k, std::size_t n,
                                 std::size_t lanes) {
  ptc::EventCounter ev;
  for (const ptc::Tile& tile : ptc::partition_tiles(m, n, 8, 8)) {
    ev += ptc::tile_step_events(tile.rows, tile.cols, k, lanes, ptc::Residency::kBroadcast,
                                ptc::kSamplePerOutput);
  }
  return ev;
}

/// Resident bytes of a lane operand with `n` columns of reduction length
/// `k` prepared whole (no capacity padding): its int16 codes, nothing
/// else.
std::size_t operand_bytes(std::size_t n, std::size_t k) {
  return sizeof(ptc::PreparedOperand) + n * k * sizeof(std::int16_t);
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

/// The lane executor with the amplitude-operand semantics this backend
/// had before it cached quantizer codes: every product pre-encodes B
/// whole through faults::LaneEncoder — current amplitudes, a golden copy
/// while golden is not pinned at the bank's epoch, and checksum stripes
/// summed from the golden columns in ascending order — and a storm step
/// refreshes the current table and re-encodes only the stripes the epoch
/// moved past.  The governor, the
/// ladder and every monitor record follow the backend's.  Operands are
/// never cached: a cached or appended operand was bit-identical to this
/// fresh prepare, so outputs, verdicts, events and health must match the
/// backend's bit for bit whatever its caches hold.
class AmplitudeOracle {
 public:
  AmplitudeOracle(faults::LaneBank& bank, faults::GuardedBackendConfig cfg)
      : bank_(bank),
        cfg_(cfg),
        kernel_(ptc::Ddot{}, ptc::DotEngineConfig{.wavelengths = bank.wavelengths()}),
        policy_(cfg.escalation),
        tracker_(cfg.drift) {
    tracker_.resize(bank_.lanes());
    recalibrate();
  }

  void recalibrate() {
    golden_.rebuild(bank_);
    tracker_.reset();
  }
  void attach_storm(faults::FaultInjector* injector, std::uint64_t steps) {
    storm_ = injector;
    steps_ = steps;
    clock_ = injector->step();
  }
  void inject_dot_upset(faults::DotUpset u) { upsets_.push_back(u); }
  [[nodiscard]] const faults::HealthMonitor& monitor() const { return monitor_; }
  [[nodiscard]] const ptc::EventCounter& events() const { return events_; }
  [[nodiscard]] const faults::DriftTracker& drift() const { return tracker_; }

  /// C = A·B, B in (k × n) orientation.
  Matrix matmul(const Matrix& a, const Matrix& b);

 private:
  std::vector<std::size_t> lanes_of(const std::vector<std::size_t>& channels) const {
    std::vector<std::size_t> lanes;
    for (std::size_t rail = 0; rail < faults::LaneBank::kRails; ++rail) {
      for (const std::size_t ch : channels) lanes.push_back(rail * bank_.wavelengths() + ch);
    }
    return lanes;
  }
  bool retrim_allowed() const {
    return cfg_.escalation.window_products == 0 || spent_ < cfg_.escalation.window_retrims;
  }
  void note_retrim() {
    ++spent_;
    last_retrim_ = products_;
    retrimmed_ = true;
  }
  void observe(const faults::SelfTestReport& report) {
    const double budget = policy_.config().self_test.error_budget;
    if (budget <= 0.0) return;
    for (const faults::LaneOutcome& lane : report.lanes) {
      if (lane.verdict == faults::LaneVerdict::kDead && !lane.retrimmed &&
          lane.screen_error_before == 0.0) {
        continue;
      }
      tracker_.observe_probe(lane.lane, std::max(0.0, lane.screen_error_after / budget - 1.0));
    }
  }
  void retrim(const std::vector<std::size_t>& lanes, bool proactive) {
    const faults::SelfTestReport report = run_self_test(bank_, lanes, policy_.config().self_test);
    monitor_.record_self_test(report);
    if (proactive) {
      monitor_.record_action(faults::GuardAction::kRetrim);
      monitor_.record_proactive_retrim();
    }
    observe(report);
    note_retrim();
    recalibrate();
  }
  void product_entry() {
    const faults::EscalationConfig& e = cfg_.escalation;
    ++products_;
    if (e.window_products > 0 && products_ - window_start_ >= e.window_products) {
      window_start_ += ((products_ - window_start_) / e.window_products) * e.window_products;
      spent_ = 0;
    }
    if (!e.proactive_retrim || e.max_retrims == 0 || !tracker_.any_excursion() ||
        bank_.usable_channels() == 0) {
      return;
    }
    if (e.retrim_cooldown_products > 0 && retrimmed_ &&
        products_ - last_retrim_ < e.retrim_cooldown_products) {
      return;
    }
    if (!retrim_allowed()) {
      monitor_.record_governed_retrim();
      return;
    }
    retrim(lanes_of(bank_.surviving_channels()), true);
  }
  void fence_diverged(const std::vector<std::size_t>& channels) {
    const std::int32_t max_code = bank_.quantizer().max_code();
    std::size_t fenced = 0, probes = 0;
    for (const std::size_t flat : lanes_of(channels)) {
      faults::Lane& lane = bank_.lane(flat);
      if (lane.fenced) continue;
      bool diverged = false;
      for (std::int32_t code = -max_code; code <= max_code && !diverged; ++code) {
        ++probes;
        diverged = !(lane.model.encode_code(code) == golden_.at(flat, code));
      }
      if (diverged) {
        lane.fenced = true;
        ++fenced;
        monitor_.record_implicated_lane(flat);
      }
    }
    monitor_.record_probe_events(probes);
    if (fenced > 0) bank_.bump_epoch();
  }

  faults::LaneBank& bank_;
  faults::GuardedBackendConfig cfg_;
  ptc::FusedKernel kernel_;
  faults::EscalationPolicy policy_;
  faults::HealthMonitor monitor_;
  faults::DriftTracker tracker_;
  faults::LaneEncodeTable golden_;
  faults::LaneEncodeTable table_;
  ptc::EventCounter events_;
  std::vector<faults::DotUpset> upsets_;
  faults::FaultInjector* storm_{nullptr};
  std::uint64_t steps_{0};
  std::uint64_t clock_{0};
  std::size_t products_{0}, window_start_{0}, spent_{0}, last_retrim_{0};
  bool retrimmed_{false};
};

Matrix AmplitudeOracle::matmul(const Matrix& a, const Matrix& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (bank_.usable_channels() == 0) return Matrix(m, n);
  product_entry();
  table_.ensure(bank_);
  const bool guarded = cfg_.guard.enabled;
  const std::size_t H = cfg_.array_rows, W = cfg_.array_cols;
  const double b_scale = converters::max_abs_scale(b.data());
  const double a_scale = converters::max_abs_scale(a.data());
  Matrix bn(n, k), an(m, k);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < k; ++p) bn(j, p) = b(p, j) / b_scale;
  }
  for (std::size_t i = 0; i < a.size(); ++i) an.data()[i] = a.data()[i] / a_scale;

  // The pre-encoded B operand: current, golden copy, stripes.
  std::vector<std::size_t> channels;
  Matrix be, bgold, stripes;
  std::vector<std::uint64_t> b_epoch;
  const auto prepare = [&] {
    channels = bank_.surviving_channels();
    const bool copy = guarded && !golden_.fresh(bank_);
    be = Matrix(n, k);
    bgold = copy ? Matrix(n, k) : Matrix();
    const faults::LaneEncoder enc(bank_, channels, 1, table_, &golden_);
    for (std::size_t j = 0; j < n; ++j) {
      enc(bn.row(j), be.row(j), copy ? bgold.row(j) : std::span<double>{});
    }
    stripes = Matrix((n + W - 1) / W, k);
    const Matrix& g = copy ? bgold : be;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = 0; p < k; ++p) stripes(j / W, p) += g(j, p);
    }
    b_epoch.assign((n + W - 1) / W, bank_.epoch());
  };
  prepare();
  Matrix ae(m, k), ag(guarded ? m : 0, k), xsum;
  std::vector<std::uint64_t> a_epoch;
  const auto encode_a = [&] {
    a_epoch.assign((m + H - 1) / H, bank_.epoch());
    const faults::LaneEncoder enc(bank_, channels, 0, table_, &golden_);
    for (std::size_t i = 0; i < m; ++i) {
      enc(an.row(i), ae.row(i), guarded ? ag.row(i) : std::span<double>{});
    }
    if (guarded) ptc::stripe_sums(ag, H, xsum);
  };
  encode_a();

  Matrix c(m, n);
  const double rescale = a_scale * b_scale;
  const std::vector<ptc::Tile> tiles = ptc::partition_tiles(m, n, H, W);
  std::vector<ptc::TileCheck> checks(tiles.size());
  ptc::GuardOutcome outcome;
  outcome.enabled = true;
  outcome.tiles_checked = tiles.size();
  std::vector<double> sums(H + W);
  // A stale stripe re-encodes from its normalized rows through the
  // refreshed current table.
  const auto refresh = [&](const ptc::Tile& tile) {
    const std::uint64_t now = bank_.epoch();
    std::uint64_t& ea = a_epoch[tile.row0 / H];
    std::uint64_t& eb = b_epoch[tile.col0 / W];
    if (ea == now && eb == now) return;
    table_.ensure(bank_);
    if (ea != now) {
      const faults::LaneEncoder enc(bank_, channels, 0, table_);
      for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) enc(an.row(i), ae.row(i));
      ea = now;
    }
    if (eb != now) {
      const faults::LaneEncoder enc(bank_, channels, 1, table_);
      for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) enc(bn.row(j), be.row(j));
      eb = now;
    }
  };
  const auto run_tile = [&](std::size_t t, const std::vector<faults::DotUpset>* ups) {
    const ptc::Tile& tile = tiles[t];
    if (cfg_.path == ptc::ExecutionPath::kKernelSimd) {
      kernel_.run_tile_fast(tile, ae, be, {}, {}, c);
    } else {
      kernel_.run_tile(tile, ae, be, c);
    }
    if (ups != nullptr) {
      for (const faults::DotUpset& u : *ups) {
        if (u.row >= tile.row0 && u.row < tile.row0 + tile.rows && u.col >= tile.col0 &&
            u.col < tile.col0 + tile.cols) {
          c(u.row, u.col) += u.delta;
        }
      }
    }
    if (!guarded) {
      ptc::fold_tile(tile, rescale, c);
      return ptc::TileCheck{};
    }
    const std::span<double> rsum = std::span<double>(sums).first(tile.rows);
    const std::span<double> csum = std::span<double>(sums).subspan(tile.rows, tile.cols);
    ptc::fold_tile(tile, rescale, c, rsum, csum);
    ptc::TileCheck check = ptc::verify_tile(
        cfg_.guard, tile, t, rsum, csum, ag, xsum.row(tile.row0 / H),
        bgold.size() > 0 ? bgold : be, 0, stripes.row(tile.col0 / W));
    if (check.single_error) {
      c(check.single_error->row, check.single_error->col) -= check.single_error->delta * rescale;
      check.ok = true;
      check.corrected = 1;
    }
    return check;
  };

  const std::vector<faults::DotUpset> ups = std::move(upsets_);
  upsets_.clear();
  const std::vector<faults::DotUpset>* initial = ups.empty() ? nullptr : &ups;
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    if (storm_ != nullptr) {
      clock_ += steps_;
      storm_->advance_to(clock_);
      refresh(tiles[t]);
    }
    checks[t] = run_tile(t, initial);
  }
  const ptc::TileGrid grid{H, W, channels.size()};
  events_ += ptc::product_events(m, k, n, grid, ptc::Residency::kBroadcast,
                                 ptc::kSamplePerOutput);
  outcome.checksum_events += ptc::checksum_product_events(m, k, n, grid);
  if (!guarded) return c;

  std::vector<std::size_t> bad;
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    if (!checks[t].ok) bad.push_back(t);
    outcome.tiles_corrected += checks[t].corrected;
    ptc::fold_worst_residual(checks[t].worst_residual, checks[t].tolerance,
                             outcome.worst_residual, outcome.worst_tolerance);
  }
  outcome.mismatched_tiles = bad.size();
  if (!bad.empty()) outcome.first_mismatch = bad.front();
  const auto tally = [&] {
    for (const ptc::TileCheck& check : checks) outcome.tally_drift(check);
  };
  double ratio = 0.0;
  for (const ptc::TileCheck& check : checks) {
    if (std::isnan(check.worst_residual)) {
      ratio = std::numeric_limits<double>::quiet_NaN();
      break;
    }
    if (check.tolerance > 0.0) ratio = std::max(ratio, check.worst_residual / check.tolerance);
  }
  tracker_.observe_residual(lanes_of(channels), ratio);

  faults::EscalationState state;
  while (!bad.empty()) {
    const bool retrim_ok = retrim_allowed();
    const faults::GuardAction action = policy_.next(state, retrim_ok);
    if (!retrim_ok && policy_.next(state, true) == faults::GuardAction::kRetrim) {
      monitor_.record_governed_retrim();
    }
    monitor_.record_action(action);
    if (action == faults::GuardAction::kGiveUp) break;
    bool repacked = false;
    if (action == faults::GuardAction::kRetry) {
      ++state.retries;
    } else if (action == faults::GuardAction::kRetrim) {
      ++state.retrims;
      retrim(lanes_of(channels), false);
      repacked = true;
    } else if (action == faults::GuardAction::kFence) {
      ++state.fences;
      fence_diverged(channels);
      repacked = true;
    }
    if (repacked) {
      if (bank_.surviving_channels().empty()) {
        monitor_.record_action(faults::GuardAction::kGiveUp);
        tally();
        monitor_.record_product(outcome);
        return Matrix(m, n);
      }
      table_.ensure(bank_);
      prepare();
      encode_a();
    }
    const std::size_t nl = channels.size();
    for (const std::size_t t : bad) {
      const ptc::Tile& tile = tiles[t];
      refresh(tile);
      checks[t] = run_tile(t, nullptr);
      outcome.tiles_corrected += checks[t].corrected;
      const ptc::EventCounter ev = ptc::tile_step_events(
          tile.rows, tile.cols, k, nl, ptc::Residency::kBroadcast, ptc::kSamplePerOutput);
      events_ += ev;
      monitor_.record_retry_events(ev);
      outcome.checksum_events +=
          ptc::checksum_lane_events(tile.rows, tile.cols, k, (k + nl - 1) / nl);
    }
    std::vector<std::size_t> still;
    for (const std::size_t t : bad) {
      if (!checks[t].ok) still.push_back(t);
    }
    bad = std::move(still);
  }
  tally();
  monitor_.record_product(outcome);
  return c;
}

/// One scenario on two identically built banks: the backend on one, the
/// amplitude oracle on the other, product by product.
struct Differential {
  faults::LaneBank bank;
  faults::LaneBank oracle_bank;
  faults::GuardedBackend backend;
  AmplitudeOracle oracle;

  Differential(const faults::LaneBankConfig& bank_cfg, const faults::GuardedBackendConfig& cfg)
      : bank(trimmed(bank_cfg)),
        oracle_bank(trimmed(bank_cfg)),
        backend(bank, cfg),
        oracle(oracle_bank, cfg) {}

  static faults::LaneBank trimmed(const faults::LaneBankConfig& cfg) {
    faults::LaneBank b(cfg);
    faults::production_trim(b);
    return b;
  }

  /// Both sides' state after a product: output, events, health, drift.
  void expect_equal(const Matrix& got, const Matrix& want, const std::string& what) {
    SCOPED_TRACE(what);
    expect_matrices_equal(got, want);
    expect_events_equal(backend.events(), oracle.events());
    expect_snapshots_equal(backend.monitor().snapshot(), oracle.monitor().snapshot());
    for (std::size_t l = 0; l < bank.lanes(); ++l) {
      EXPECT_EQ(backend.drift().level(l), oracle.drift().level(l)) << "lane " << l;
      EXPECT_EQ(bank.lane(l).fenced, oracle_bank.lane(l).fenced) << "lane " << l;
    }
    EXPECT_EQ(bank.epoch(), oracle_bank.epoch());
  }
  void matmul(const Matrix& a, const Matrix& b, const std::string& what) {
    expect_equal(backend.matmul(a, b), oracle.matmul(a, b), what);
  }
  void cached(const Matrix& a, const Matrix& b, std::uint64_t id, const std::string& what) {
    expect_equal(backend.matmul_cached(a, b, {id, 1}), oracle.matmul(a, b), what);
  }
  /// Decode-style KV products against a history grown to `t` rows:
  /// scores (the history is Bᵀ) and context (it is B).
  void kv(const Matrix& history, std::size_t t, Rng& rng, const std::string& what) {
    Matrix h(t, history.cols());
    std::copy_n(history.data().begin(), h.size(), h.data().begin());
    const Matrix q = Matrix::random_gaussian(2, history.cols(), rng, 0.0, 1.0);
    expect_equal(backend.matmul_kv(q, h, {41, nn::KvAxis::kCols}), oracle.matmul(q, h.transposed()),
                 what + " scores");
    const Matrix probs = Matrix::random_gaussian(2, t, rng, 0.0, 1.0);
    expect_equal(backend.matmul_kv(probs, h, {42, nn::KvAxis::kRows}), oracle.matmul(probs, h),
                 what + " context");
  }
};

/// A KV history whose first row is the loudest, so later rows append.
Matrix kv_history(std::size_t rows, std::size_t d, Rng& rng) {
  Matrix h = Matrix::random_gaussian(rows, d, rng, 0.0, 0.3);
  for (std::size_t c = 0; c < d; ++c) h(0, c) = c % 2 == 0 ? 1.5 : -1.5;
  return h;
}

faults::FaultEvent fault(std::uint64_t step, std::size_t lane, faults::FaultKind kind,
                         double magnitude, int bit = 0) {
  faults::FaultEvent ev;
  ev.step = step;
  ev.lane = lane;
  ev.kind = kind;
  ev.magnitude = magnitude;
  ev.bit = bit;
  return ev;
}

/// Every scenario of the code-operand change against the amplitude
/// oracle, on both kernel tiers, at 1 and 3 tile workers, guarded and
/// not: clean products (plain, cached, KV on both axes); a storm with a
/// hard and a drift-class fault mid-product; a bias walk that moves the
/// epoch at every tile step (a full table refresh per step); every ladder rung —
/// retry and re-trim, fence, give-up, and an all-fenced outage —; single
/// and double upsets; and KV appends across an epoch move, a golden
/// re-pin at an unchanged epoch, and a fence.  Outputs, events, health
/// snapshots, drift levels and fences must be equal bit for bit after
/// every product.
TEST(GuardedBackend, CodeOperandsMatchTheAmplitudeOracle) {
  for (const ptc::ExecutionPath path :
       {ptc::ExecutionPath::kKernel, ptc::ExecutionPath::kKernelSimd}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      for (const bool guarded : {true, false}) {
        SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)) + ", threads " +
                     std::to_string(threads) + ", guard " + std::to_string(guarded));
        faults::GuardedBackendConfig cfg;
        cfg.path = path;
        cfg.threads = threads;
        cfg.guard.enabled = guarded;
        Rng rng(61);
        const Matrix a = Matrix::random_gaussian(11, 24, rng, 0.0, 1.0);
        const Matrix b = Matrix::random_gaussian(24, 19, rng, 0.0, 1.0);
        const Matrix history = kv_history(12, 10, rng);

        {  // clean
          Differential d(small_bank_config(), cfg);
          d.matmul(a, b, "clean plain");
          d.cached(a, b, 7, "clean cold");
          d.cached(a, b, 7, "clean warm");
          for (std::size_t t = 3; t <= 5; ++t) d.kv(history, t, rng, "clean kv");
        }
        {  // storm: a stuck MRR and a TIA gain step strike mid-product
          Differential d(small_bank_config(), cfg);
          faults::FaultSchedule sched = one_event(8, stuck_mrr(5, 4), 256);
          sched.events.push_back(fault(9, 2, faults::FaultKind::kTiaGainStep, 1.3, 2));
          faults::FaultInjector inj(d.bank, sched);
          faults::FaultInjector oinj(d.oracle_bank, sched);
          d.backend.attach_storm(&inj, 1);
          d.oracle.attach_storm(&oinj, 1);
          d.cached(a, b, 7, "storm 1");
          d.cached(a, b, 7, "storm 2");
          for (std::size_t t = 3; t <= 5; ++t) d.kv(history, t, rng, "storm kv");
          EXPECT_EQ(inj.events_applied(), 2u);
          if (guarded) {
            EXPECT_GE(d.backend.monitor().snapshot().detections, 1u);
          }
        }
        {  // bias walk: a bias step at every tile step, k = 24
          Differential d(small_bank_config(), cfg);
          faults::FaultSchedule sched;
          sched.cfg.lanes = 8;
          sched.cfg.bits = 8;
          sched.cfg.horizon_steps = 64;
          for (std::uint64_t step = 1; step <= 40; ++step) {
            sched.events.push_back(
                fault(step, step % 8, faults::FaultKind::kBiasStep, step % 2 ? 1e-4 : -1e-4));
          }
          faults::FaultInjector inj(d.bank, sched);
          faults::FaultInjector oinj(d.oracle_bank, sched);
          d.backend.attach_storm(&inj, 1);
          d.oracle.attach_storm(&oinj, 1);
          d.matmul(a, b, "walk 1");
          d.cached(a, b, 7, "walk 2");
          d.kv(history, 4, rng, "walk kv");
          EXPECT_GE(inj.events_applied(), 10u);
        }
        // The ladder: default (retry, re-trim), fence only, give up.
        for (const faults::EscalationConfig& ladder :
             {faults::EscalationConfig{},
              faults::EscalationConfig{.max_retries = 0, .max_retrims = 0, .allow_fence = true},
              kGiveUpAtOnce}) {
          faults::GuardedBackendConfig lcfg = cfg;
          lcfg.escalation = ladder;
          Differential d(small_bank_config(), lcfg);
          faults::FaultInjector(d.bank, one_event(8, stuck_mrr(3))).advance_to(8);
          faults::FaultInjector(d.oracle_bank, one_event(8, stuck_mrr(3))).advance_to(8);
          d.cached(a, b, 7, "ladder 1");
          d.cached(a, b, 7, "ladder 2");
          d.kv(history, 4, rng, "ladder kv");
          if (guarded) {
            const faults::HealthSnapshot snap = d.backend.monitor().snapshot();
            EXPECT_EQ(snap.detections > 0, true);
            EXPECT_EQ(snap.retrims + snap.fences + snap.unrecovered > 0, true);
          }
        }
        {  // all-fenced outage: one channel, and the fence rung takes it
          faults::LaneBankConfig one = small_bank_config();
          one.wavelengths = 1;
          faults::GuardedBackendConfig lcfg = cfg;
          lcfg.escalation = {.max_retries = 0, .max_retrims = 0, .allow_fence = true};
          Differential d(one, lcfg);
          faults::FaultInjector(d.bank, one_event(2, stuck_mrr(1))).advance_to(8);
          faults::FaultInjector(d.oracle_bank, one_event(2, stuck_mrr(1))).advance_to(8);
          d.cached(a, b, 7, "outage 1");
          d.cached(a, b, 7, "outage 2");
          if (guarded) {
            EXPECT_EQ(d.bank.usable_channels(), 0u);
          }
        }
        {  // upsets: one (SEC), then two
          Differential d(small_bank_config(), cfg);
          d.backend.inject_dot_upset({2, 3, 0.5});
          d.oracle.inject_dot_upset({2, 3, 0.5});
          d.cached(a, b, 7, "single upset");
          for (const faults::DotUpset& u : {faults::DotUpset{1, 2, 0.5}, {4, 5, -0.4}}) {
            d.backend.inject_dot_upset(u);
            d.oracle.inject_dot_upset(u);
          }
          d.cached(a, b, 7, "double upset");
          if (guarded) {
            EXPECT_EQ(d.backend.monitor().snapshot().sec_corrections, 1u);
            EXPECT_EQ(d.backend.monitor().snapshot().retries, 1u);
          }
        }
        {  // KV appends across an epoch move, a golden re-pin, a fence
          Differential d(small_bank_config(), cfg);
          d.kv(history, 3, rng, "kv start");
          d.kv(history, 4, rng, "kv append");
          faults::FaultInjector(d.bank, one_event(8, stuck_mrr(6))).advance_to(8);
          faults::FaultInjector(d.oracle_bank, one_event(8, stuck_mrr(6))).advance_to(8);
          d.kv(history, 6, rng, "kv after a fault");
          d.kv(history, 7, rng, "kv append after the fault");
          d.backend.recalibrate();
          d.oracle.recalibrate();
          d.kv(history, 8, rng, "kv after a re-pin");
          for (faults::LaneBank* bank : {&d.bank, &d.oracle_bank}) {
            bank->lane(0, 1).fenced = true;
            bank->bump_epoch();
          }
          d.kv(history, 9, rng, "kv after a fence");
          d.kv(history, 12, rng, "kv append after the fence");
        }
      }
    }
  }
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

    // Operands are cached as quantizer codes: the cached weight and both
    // KV operands carry no amplitudes and no checksum stripes, and the
    // caches' resident bytes are the codes alone.
    const nn::WeightHandle w{21, 1};
    expect_matrices_equal(guarded.matmul_cached(a, b, w), got);
    const auto weight = guarded.cache().lookup(w.id, w.version);
    ASSERT_NE(weight, nullptr);
    EXPECT_EQ(weight->encoded.size(), 0u);
    EXPECT_EQ(weight->checksum.size(), 0u);
    EXPECT_EQ(weight->codes.rows(), 11u);
    EXPECT_EQ(guarded.cache().stats().resident_bytes, operand_bytes(11, 18));
    const Matrix keys = Matrix::random_gaussian(9, 18, rng, 0.0, 1.0);
    const Matrix probs = Matrix::random_gaussian(13, 9, rng, 0.0, 1.0);
    expect_matrices_equal(guarded.matmul_kv(a, keys, {1, nn::KvAxis::kCols}),
                          lane_reference(bank, a, keys.transposed(), path));
    expect_matrices_equal(guarded.matmul_kv(probs, keys, {2, nn::KvAxis::kRows}),
                          lane_reference(bank, probs, keys, path));
    EXPECT_EQ(guarded.kv_cache()->stats().resident_bytes,
              operand_bytes(9, 18) + operand_bytes(18, 9));
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
  // A storm step refreshes the current lane table, then decodes its B
  // stripe and re-encodes its stale A stripe from it, so every tile must
  // give the bits of the lanes as they stand at that step: with the
  // guard off, every tile before the strike equals the clean bank's lane
  // reference and every tile from it on the struck bank's, bit for bit,
  // on the 3 × 3 tile grid at reduction lengths 16, 96 and 320.
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

TEST(GuardedBackend, EpochBumpKeepsCachedCodesAndGuardStillFires) {
  // Weight-stationary interplay: the injector's epoch bump leaves the
  // cached codes resident — no lane state enters them, so the entry is a
  // hit — and because the golden snapshot predates the fault, the
  // product decoded through the struck lanes is still caught and
  // recovered.
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackend backend(bank);
  Rng rng(37);
  const Matrix a = Matrix::random_gaussian(12, 16, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(16, 12, rng, 0.0, 1.0);
  const nn::WeightHandle w{7, 1};

  (void)backend.matmul_cached(a, b, w);  // miss + insert
  (void)backend.matmul_cached(a, b, w);  // hit
  const nn::OperandCacheStats& st = backend.cache().stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(backend.monitor().snapshot().detections, 0u);

  faults::FaultInjector injector(bank, one_event(bank.lanes(), stuck_mrr(1)));
  injector.advance_to(8);  // mutates lanes AND bumps the bank epoch
  const std::uint64_t struck_epoch = bank.epoch();

  const Matrix recovered = backend.matmul_cached(a, b, w);
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 1u);
  const faults::HealthSnapshot& snap = backend.monitor().snapshot();
  EXPECT_EQ(snap.detections, 1u);
  EXPECT_DOUBLE_EQ(snap.mean_detection_latency(), 1.0);  // the strike precedes tile 0
  EXPECT_EQ(snap.unrecovered, 0u);
  const auto err = stats::compare(recovered.data(), matmul_reference(a, b).data());
  EXPECT_GT(err.cosine, 0.99);

  // The re-trim's self-test moved the epoch again; the operand in hand
  // was still right, so nothing was invalidated or rebuilt and the entry
  // stays resident.
  EXPECT_EQ(snap.retrims, 1u);
  EXPECT_EQ(snap.fences, 0u);
  EXPECT_GT(bank.epoch(), struck_epoch);
  EXPECT_EQ(st.invalidations, 0u);
  EXPECT_EQ(st.rebuilds, 0u);
  EXPECT_TRUE(backend.cache().contains(w.id, w.version));

  // The next product hits and verifies cleanly against the repaired bank.
  const Matrix again = backend.matmul_cached(a, b, w);
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(backend.monitor().snapshot().detections, 1u);
  expect_matrices_equal(again, recovered);

  // The entry built before the strike keeps its codes: golden predates
  // the epoch, so each tile step decodes golden references beside the
  // data, and the guard fires at the first tile.  A ladder that may only
  // give up leaves it resident to be looked at.
  faults::LaneBank held_bank(small_bank_config());
  faults::production_trim(held_bank);
  faults::GuardedBackend held(held_bank, {.escalation = kGiveUpAtOnce});
  (void)held.matmul_cached(a, b, w);
  const auto built = held.cache().lookup(w.id, w.version);
  ASSERT_NE(built, nullptr);
  faults::FaultInjector held_injector(held_bank, one_event(held_bank.lanes(), stuck_mrr(1)));
  held_injector.advance_to(8);
  (void)held.matmul_cached(a, b, w);
  const faults::HealthSnapshot& held_snap = held.monitor().snapshot();
  EXPECT_EQ(held_snap.detections, 1u);
  EXPECT_DOUBLE_EQ(held_snap.mean_detection_latency(), 1.0);
  EXPECT_EQ(held_snap.unrecovered, 1u);
  const nn::OperandCacheStats& held_stats = held.cache().stats();
  EXPECT_EQ(held_stats.invalidations, 0u);
  EXPECT_EQ(held_stats.misses, 1u);
  EXPECT_EQ(held_stats.rebuilds, 0u);
  EXPECT_EQ(held.cache().lookup(w.id, w.version), built);
}

TEST(GuardedBackend, GoldenRepinAtTheSameEpochAppendsUnderTheNewGolden) {
  // A strike leaves golden behind the epoch, so the KV entry built next
  // is checked against golden references decoded beside its data.
  // recalibrate() then re-pins golden without moving the epoch: the entry
  // is still fresh, its codes do not depend on golden, and the append is
  // accepted — one more hit and one more append, no rebuild — while the
  // tile steps now decode references from the new golden: the product of
  // an uncached operand, bit for bit, with no new detection.
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
  EXPECT_EQ(built.resident_bytes, operand_bytes(10, d));
  const std::size_t detections = backend.monitor().snapshot().detections;
  EXPECT_EQ(detections, 1u);

  const std::uint64_t epoch = bank.epoch();
  backend.recalibrate();
  ASSERT_EQ(bank.epoch(), epoch);
  const Matrix got = backend.matmul_kv(q, grown, handle);
  const nn::OperandCacheStats& st = backend.kv_cache()->stats();
  EXPECT_EQ(st.hits, built.hits + 1);
  EXPECT_EQ(st.appends, built.appends + 1);
  EXPECT_EQ(st.rebuilds, built.rebuilds);
  EXPECT_EQ(st.misses, built.misses);
  EXPECT_TRUE(backend.kv_cache()->contains(handle.id, 0));
  EXPECT_EQ(st.resident_bytes, operand_bytes(11, d));
  EXPECT_EQ(backend.monitor().snapshot().detections, detections);
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

TEST(GuardedBackend, ProactiveRetrimThatFencesEveryLaneIsAnOutage) {
  // Every lane stuck and an excursion on the drift tracker: the
  // proactive re-trim at product entry fences every lane, so the product
  // that follows is an outage like a fully fenced bank — all-zero
  // output, no events, no product recorded — and never encodes through
  // an empty packing.
  faults::LaneBank bank(small_bank_config());
  faults::production_trim(bank);
  faults::GuardedBackendConfig cfg;
  cfg.escalation.proactive_retrim = true;
  faults::GuardedBackend backend(bank, cfg);
  faults::FaultSchedule sched = one_event(bank.lanes(), stuck_mrr(0));
  std::vector<std::size_t> lanes{0};
  for (std::size_t l = 1; l < bank.lanes(); ++l) {
    sched.events.push_back(stuck_mrr(l));
    lanes.push_back(l);
  }
  faults::FaultInjector injector(bank, sched);
  injector.advance_to(2);
  for (int n = 0; n < 4; ++n) backend.drift().observe_residual(lanes, 50.0);
  ASSERT_TRUE(backend.drift().any_excursion());
  ASSERT_GT(bank.usable_channels(), 0u);

  Rng rng(3);
  const Matrix a = Matrix::random_gaussian(2, 8, rng, 0.0, 1.0);
  const Matrix b = Matrix::random_gaussian(8, 2, rng, 0.0, 1.0);
  const Matrix out = backend.matmul(a, b);
  EXPECT_EQ(bank.usable_channels(), 0u);
  for (double v : out.data()) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(backend.events().cycles, 0u);
  const faults::HealthSnapshot& snap = backend.monitor().snapshot();
  EXPECT_EQ(snap.products, 0u);
  EXPECT_EQ(snap.proactive_retrims, 1u);
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
