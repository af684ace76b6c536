#include "faults/guarded_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "common/math_utils.hpp"
#include "common/require.hpp"
#include "common/simd.hpp"
#include "converters/quantizer.hpp"

namespace pdac::faults {

namespace {

/// Raw running max-abs (the fold inside converters::max_abs_scale,
/// without the all-zero → 1.0 collapse), so appended deltas can be
/// checked against the exact bound the scale was derived from.  The fold
/// ignores NaN on either side, so it is order-independent — b and bᵀ
/// storage orders yield the same bits.
double raw_abs_max(std::span<const double> values) {
  double m = 0.0;
  for (const double v : values) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace

ptc::ExecutionPath auto_execution_path(const LaneBank& bank) {
  LaneEncodeTable table;
  table.ensure(bank);
  if (table.quant_available()) return ptc::ExecutionPath::kKernelQuant;
  if (simd::has_fast_path()) return ptc::ExecutionPath::kKernelSimd;
  return ptc::ExecutionPath::kKernel;
}

GuardedBackend::GuardedBackend(LaneBank& bank, GuardedBackendConfig cfg,
                               HealthMonitor* shared_monitor)
    : bank_(bank),
      cfg_(cfg),
      pool_(std::make_unique<ThreadPool>(cfg.threads)),
      cache_(cfg.cache),
      kv_cache_(cfg.kv_cache),
      policy_(cfg.escalation),
      tracker_(cfg.drift) {
  PDAC_REQUIRE(cfg_.array_rows >= 1 && cfg_.array_cols >= 1,
               "GuardedBackend: array dimensions must be positive");
  cfg_.guard.enabled = true;  // detection is the point of this backend
  if (shared_monitor != nullptr) monitor_ = shared_monitor;
  tracker_.resize(bank_.lanes());
  recalibrate();  // construction is a trusted calibration point
}

void GuardedBackend::recalibrate() {
  const std::int32_t max_code = bank_.quantizer().max_code();
  const std::size_t codes = static_cast<std::size_t>(max_code) * 2 + 1;
  golden_.assign(bank_.lanes(), std::vector<double>(codes, 0.0));
  for (std::size_t l = 0; l < bank_.lanes(); ++l) {
    const Lane& lane = bank_.lane(l);
    for (std::size_t ci = 0; ci < codes; ++ci) {
      const auto code = static_cast<std::int32_t>(static_cast<std::int64_t>(ci) - max_code);
      golden_[l][ci] = lane.model.encode_code(code);
    }
  }
  golden_epoch_ = bank_.epoch();
  // Golden re-snapshot is a trusted point: residuals now measure
  // divergence from the NEW state, so the accumulated drift levels are
  // repaid — carrying them forward would re-trigger the proactive rung
  // against evidence the re-trim just erased.
  tracker_.reset();
}

void GuardedBackend::roll_retrim_window() {
  const EscalationConfig& e = cfg_.escalation;
  if (e.window_products == 0) return;
  if (products_run_ - window_start_product_ >= e.window_products) {
    // Advance by whole window lengths: the budget refills exactly at the
    // boundary multiple, however long the backend idled past it.
    window_start_product_ +=
        ((products_run_ - window_start_product_) / e.window_products) * e.window_products;
    window_retrims_spent_ = 0;
  }
}

bool GuardedBackend::retrim_allowed() const {
  const EscalationConfig& e = cfg_.escalation;
  return e.window_products == 0 || window_retrims_spent_ < e.window_retrims;
}

void GuardedBackend::note_retrim() {
  ++window_retrims_spent_;
  last_retrim_product_ = products_run_;
  retrimmed_ever_ = true;
}

void GuardedBackend::observe_probes(const SelfTestReport& report) {
  const double budget = policy_.config().self_test.error_budget;
  if (budget <= 0.0) return;
  for (const LaneOutcome& lane : report.lanes) {
    // Already-fenced lanes are reported dead without being screened:
    // no measurement, no sample.
    if (lane.verdict == LaneVerdict::kDead && !lane.retrimmed &&
        lane.screen_error_before == 0.0) {
      continue;
    }
    // Over-budget excess: a healthy lane's intrinsic encoder error sits
    // near (below) the budget by construction, so it reads ~0 here.
    tracker_.observe_probe(lane.lane, std::max(0.0, lane.screen_error_after / budget - 1.0));
  }
}

void GuardedBackend::maybe_proactive_retrim() {
  const EscalationConfig& e = cfg_.escalation;
  if (!e.proactive_retrim || e.max_retrims == 0) return;  // serving clamp gates this too
  if (!tracker_.any_excursion()) return;
  if (bank_.usable_channels() == 0) return;
  if (e.retrim_cooldown_products > 0 && retrimmed_ever_ &&
      products_run_ - last_retrim_product_ < e.retrim_cooldown_products) {
    // Hysteresis dwell: keep absorbing and watching; re-check next
    // product.  Deliberately not counted as governed — the dwell is the
    // policy working, not the budget refusing.
    return;
  }
  if (!retrim_allowed()) {
    monitor_->record_governed_retrim();
    return;
  }
  const SelfTestReport report =
      run_self_test(bank_, implicated_lanes(surviving_channels()), e.self_test);
  monitor_->record_self_test(report);
  monitor_->record_action(GuardAction::kRetrim);
  monitor_->record_proactive_retrim();
  observe_probes(report);
  note_retrim();
  recalibrate();  // post-self-test lane state is trusted
}

void GuardedBackend::product_entry() {
  ++products_run_;
  roll_retrim_window();
  maybe_proactive_retrim();
}

void GuardedBackend::force_retrim() {
  const SelfTestReport report =
      run_self_test(bank_, implicated_lanes(surviving_channels()), policy_.config().self_test);
  monitor_->record_self_test(report);
  monitor_->record_action(GuardAction::kRetrim);
  observe_probes(report);
  note_retrim();
  recalibrate();
}

void GuardedBackend::attach_storm(FaultInjector* injector, std::uint64_t steps_per_tile) {
  storm_ = injector;
  storm_steps_per_tile_ = injector != nullptr ? steps_per_tile : 0;
  storm_clock_ = injector != nullptr ? injector->step() : 0;
}

double GuardedBackend::golden_encode(std::size_t rail, std::size_t channel, double r) const {
  const converters::Quantizer& quant = bank_.quantizer();
  const std::int32_t code = quant.encode(math::clamp_unit(r));
  return golden_[rail * bank_.wavelengths() + channel]
                [static_cast<std::size_t>(code + quant.max_code())];
}

double GuardedBackend::encode_current(std::size_t rail, std::size_t channel, double r) const {
  // Falls back to the live model whenever the table is stale (a rung just
  // moved the epoch and ensure() has not run yet), so a missed ensure()
  // can cost speed but never correctness.
  if (cfg_.use_lane_table && table_.fresh(bank_)) return table_.encode(rail, channel, r);
  return bank_.encode(rail, channel, r);
}

bool GuardedBackend::quant_live() const {
  return cfg_.path == ptc::ExecutionPath::kKernelQuant && cfg_.use_lane_table &&
         table_.fresh(bank_) && table_.quant_available();
}

std::vector<std::size_t> GuardedBackend::surviving_channels() const {
  std::vector<std::size_t> channels;
  for (std::size_t ch = 0; ch < bank_.wavelengths(); ++ch) {
    if (!bank_.lane(0, ch).fenced && !bank_.lane(1, ch).fenced) channels.push_back(ch);
  }
  return channels;
}

std::vector<std::size_t> GuardedBackend::implicated_lanes(
    const std::vector<std::size_t>& channels) const {
  // Both rails of every channel the packing uses: a reduction element on
  // channel ch touches the x-rail lane (A side) and the y-rail lane (B
  // side), and the guard cannot tell the rails apart from one residual.
  std::vector<std::size_t> lanes;
  lanes.reserve(channels.size() * LaneBank::kRails);
  for (std::size_t rail = 0; rail < LaneBank::kRails; ++rail) {
    for (const std::size_t ch : channels) lanes.push_back(rail * bank_.wavelengths() + ch);
  }
  return lanes;
}

ptc::PreparedOperand GuardedBackend::prepare_b(const Matrix& b,
                                               std::vector<std::size_t> channels) const {
  return prepare_b_src(BSource{&b, nullptr}, std::move(channels));
}

ptc::PreparedOperand GuardedBackend::prepare_b_src(const BSource& bsrc,
                                                   std::vector<std::size_t> channels) const {
  // Stage Bᵀ normalized whichever orientation the caller holds: the max
  // fold is order-independent and transposition only reorders the same
  // doubles, so both routes are bit-identical to prepare_b of B.
  Matrix bt = bsrc.bt != nullptr ? *bsrc.bt : bsrc.b->transposed();
  ptc::PreparedOperand pb;
  pb.rows = bt.cols();
  pb.cols = bt.rows();
  pb.abs_max = raw_abs_max(bt.data());
  pb.scale = pb.abs_max > 0.0 ? pb.abs_max : 1.0;
  pb.epoch = bank_.epoch();
  pb.channels = std::move(channels);

  const std::size_t k = pb.rows;
  const std::size_t nl = pb.channels.size();

  // Dual encode: data through the lanes' CURRENT state, references
  // through the GOLDEN snapshot.  On healthy hardware the two LUTs are
  // bit-identical, so the guard's clean residual is pure reassociation.
  for (double& v : bt.data()) v /= pb.scale;
  pb.encoded = Matrix(bt.rows(), k);
  pb.reference = Matrix(bt.rows(), k);
  // Integer-tier staging: when the quant tier is live, the lane table
  // also hands out the int16 code behind every current-state amplitude
  // (decode(code) == encoded bitwise on an on-grid bank).
  const bool quant = quant_live();
  if (quant) pb.qcodes.resize(bt.rows(), k);
  pool_->parallel_for(bt.rows(), [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t r = begin; r < end; ++r) {
      const auto src = bt.row(r);
      auto cur = pb.encoded.row(r);
      auto gold = pb.reference.row(r);
      for (std::size_t p = 0; p < k; ++p) {
        const std::size_t ch = pb.channels[p % nl];
        cur[p] = encode_current(1, ch, src[p]);
        gold[p] = golden_encode(1, ch, src[p]);
      }
      if (quant) {
        auto qrow = pb.qcodes.row(r);
        for (std::size_t p = 0; p < k; ++p) {
          qrow[p] = table_.encode_code(1, pb.channels[p % nl], src[p]);
        }
      }
    }
  });

  // Checksum stripes over the golden reference (one row per array-width
  // column stripe), cached with the operand.  The column-only cheap mode
  // never runs the row lanes these stripes feed, so it skips building
  // them — half the guard's prepare work and cache bytes.
  pb.checksum_stripe = cfg_.array_cols;
  if (!cfg_.guard.column_only) {
    const std::size_t stripes = (pb.cols + cfg_.array_cols - 1) / cfg_.array_cols;
    pb.checksum = Matrix(stripes, k);
    std::fill(pb.checksum.data().begin(), pb.checksum.data().end(), 0.0);
    for (std::size_t j = 0; j < pb.cols; ++j) {
      const auto src = pb.reference.row(j);
      const auto dst = pb.checksum.row(j / cfg_.array_cols);
      for (std::size_t p = 0; p < k; ++p) dst[p] += src[p];
    }
  }
  return pb;
}

std::shared_ptr<const ptc::PreparedOperand> GuardedBackend::obtain_b(
    const Matrix& b, const nn::WeightHandle* weight) {
  std::vector<std::size_t> channels = surviving_channels();
  if (weight == nullptr) {
    return std::make_shared<const ptc::PreparedOperand>(prepare_b(b, std::move(channels)));
  }
  std::shared_ptr<const ptc::PreparedOperand> pb =
      cache_.lookup(weight->id, weight->version, bank_.epoch());
  if (pb != nullptr && pb->channels != channels) {
    // Epoch matched but the packing did not: a fence landed without a
    // bump_epoch().  Refuse the entry (same belt-and-braces check as
    // DegradedBackend).
    cache_.erase(weight->id);
    pb = nullptr;
  }
  if (pb == nullptr) {
    pb = std::make_shared<const ptc::PreparedOperand>(prepare_b(b, std::move(channels)));
    cache_.insert(weight->id, weight->version, pb);
  }
  return pb;
}

bool GuardedBackend::append_kv_cols(ptc::PreparedOperand& pb, const Matrix& kv) const {
  // kv = Bᵀ source (n × k): rows [pb.cols, kv.rows()) are the new output
  // columns.  This axis never pads, so every matrix must sit exactly at
  // the logical shape; any structural surprise means the entry is not
  // ours to extend.
  if (pb.rows == 0 || pb.rows != kv.cols() || pb.cols > kv.rows()) return false;
  const std::size_t k = pb.rows;
  const std::size_t old_n = pb.cols;
  const std::size_t new_n = kv.rows();
  if (pb.encoded.rows() != old_n || pb.encoded.cols() != k) return false;
  if (pb.reference.rows() != old_n || pb.reference.cols() != k) return false;
  const bool quant = quant_live();
  if (quant) {
    if (pb.qcodes.rows() != old_n || pb.qcodes.cols() != k) return false;
  } else if (pb.qcodes.size() > 0) {
    return false;
  }
  const std::size_t old_stripes = (old_n + cfg_.array_cols - 1) / cfg_.array_cols;
  if (cfg_.guard.column_only) {
    if (pb.checksum.size() > 0) return false;
  } else {
    if (pb.checksum_stripe != cfg_.array_cols || pb.checksum.rows() != old_stripes ||
        pb.checksum.cols() != k) {
      return false;
    }
  }
  if (new_n == old_n) return true;
  // Scale stability: the resident scale must still bound the delta, or
  // every already-encoded element would renormalize — a rebuild.
  // `!(dmax <= abs_max)` keeps NaN on the rebuild side.
  double dmax = 0.0;
  for (std::size_t j = old_n; j < new_n; ++j) {
    dmax = std::max(dmax, raw_abs_max(kv.row(j)));
  }
  if (!(dmax <= pb.abs_max)) return false;

  const std::size_t nl = pb.channels.size();
  pb.encoded.resize(new_n, k);
  pb.reference.resize(new_n, k);
  if (quant) pb.qcodes.resize(new_n, k);
  for (std::size_t j = old_n; j < new_n; ++j) {
    const auto src = kv.row(j);
    auto cur = pb.encoded.row(j);
    auto gold = pb.reference.row(j);
    for (std::size_t p = 0; p < k; ++p) {
      const double v = src[p] / pb.scale;
      const std::size_t ch = pb.channels[p % nl];
      cur[p] = encode_current(1, ch, v);
      gold[p] = golden_encode(1, ch, v);
    }
    if (quant) {
      auto qrow = pb.qcodes.row(j);
      for (std::size_t p = 0; p < k; ++p) {
        qrow[p] = table_.encode_code(1, pb.channels[p % nl], src[p] / pb.scale);
      }
    }
  }
  if (!cfg_.guard.column_only) {
    // Continue the running stripe sums in the same ascending-j order a
    // fresh prepare uses, so the accumulated doubles match bitwise.
    const std::size_t new_stripes = (new_n + cfg_.array_cols - 1) / cfg_.array_cols;
    pb.checksum.resize(new_stripes, k);
    for (std::size_t s = old_stripes; s < new_stripes; ++s) {
      const auto row = pb.checksum.row(s);
      for (std::size_t p = 0; p < k; ++p) row[p] = 0.0;
    }
    for (std::size_t j = old_n; j < new_n; ++j) {
      const auto src = pb.reference.row(j);
      const auto dst = pb.checksum.row(j / cfg_.array_cols);
      for (std::size_t p = 0; p < k; ++p) dst[p] += src[p];
    }
  }
  pb.cols = new_n;
  return true;
}

bool GuardedBackend::append_kv_rows(ptc::PreparedOperand& pb, const Matrix& kv) const {
  // kv = B source (k × n): rows [pb.rows, kv.rows()) extend the
  // reduction axis — one new COLUMN of every encoded/reference/checksum
  // row, written into geometrically padded column capacity (the physical
  // matrices may be wider than pb.rows; consumers read spans bounded by
  // the logical k).
  if (pb.cols == 0 || pb.cols != kv.cols() || pb.rows > kv.rows()) return false;
  const std::size_t n = pb.cols;
  const std::size_t old_k = pb.rows;
  const std::size_t new_k = kv.rows();
  if (pb.encoded.rows() != n || pb.encoded.cols() < old_k) return false;
  if (pb.reference.rows() != n || pb.reference.cols() != pb.encoded.cols()) return false;
  const bool quant = quant_live();
  if (quant) {
    if (pb.qcodes.rows() != n || pb.qcodes.cols() != pb.encoded.cols()) return false;
  } else if (pb.qcodes.size() > 0) {
    return false;
  }
  const std::size_t stripes = (n + cfg_.array_cols - 1) / cfg_.array_cols;
  if (cfg_.guard.column_only) {
    if (pb.checksum.size() > 0) return false;
  } else {
    if (pb.checksum_stripe != cfg_.array_cols || pb.checksum.rows() != stripes ||
        pb.checksum.cols() != pb.encoded.cols()) {
      return false;
    }
  }
  if (new_k == old_k) return true;
  double dmax = 0.0;
  for (std::size_t r = old_k; r < new_k; ++r) {
    dmax = std::max(dmax, raw_abs_max(kv.row(r)));
  }
  if (!(dmax <= pb.abs_max)) return false;

  const std::size_t nl = pb.channels.size();
  ptc::grow_col_capacity(pb.encoded, new_k);
  ptc::grow_col_capacity(pb.reference, new_k);
  if (quant) ptc::grow_col_capacity(pb.qcodes, new_k);
  for (std::size_t j = 0; j < n; ++j) {
    const auto cur = pb.encoded.row(j);
    const auto gold = pb.reference.row(j);
    for (std::size_t p = old_k; p < new_k; ++p) {
      const double v = kv(p, j) / pb.scale;
      // Channel packing is a function of the absolute reduction
      // position p, so appended positions pack exactly as a fresh
      // prepare would pack them.
      const std::size_t ch = pb.channels[p % nl];
      cur[p] = encode_current(1, ch, v);
      gold[p] = golden_encode(1, ch, v);
    }
    if (quant) {
      const auto qrow = pb.qcodes.row(j);
      for (std::size_t p = old_k; p < new_k; ++p) {
        qrow[p] = table_.encode_code(1, pb.channels[p % nl], kv(p, j) / pb.scale);
      }
    }
  }
  if (!cfg_.guard.column_only) {
    ptc::grow_col_capacity(pb.checksum, new_k);
    // Fresh stripe positions start from exact zero (capacity padding is
    // unspecified), then accumulate in the fresh prepare's ascending-j
    // order.
    for (std::size_t s = 0; s < stripes; ++s) {
      const auto row = pb.checksum.row(s);
      for (std::size_t p = old_k; p < new_k; ++p) row[p] = 0.0;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const auto src = pb.reference.row(j);
      const auto dst = pb.checksum.row(j / cfg_.array_cols);
      for (std::size_t p = old_k; p < new_k; ++p) dst[p] += src[p];
    }
  }
  pb.rows = new_k;
  return true;
}

std::shared_ptr<const ptc::PreparedOperand> GuardedBackend::obtain_kv(
    const BSource& src, const nn::KvHandle& handle) {
  std::vector<std::size_t> channels = surviving_channels();
  std::shared_ptr<ptc::PreparedOperand> pb = kv_cache_.lookup(handle.id);
  if (pb != nullptr) {
    // Epoch + packing must both hold (the same belt-and-braces pair as
    // obtain_b): any re-trim, fence, or repack since the entry was
    // stamped means its encodings and golden references describe a bank
    // that no longer exists — appends must not bridge that.
    const bool current = pb->epoch == bank_.epoch() && pb->channels == channels;
    const bool appended =
        current && (handle.axis == nn::KvAxis::kCols ? append_kv_cols(*pb, *src.bt)
                                                     : append_kv_rows(*pb, *src.b));
    if (appended) {
      kv_cache_.record_append();
      kv_cache_.updated(handle.id);
      return pb;
    }
    kv_cache_.record_rebuild();
  }
  pb = std::make_shared<ptc::PreparedOperand>(prepare_b_src(src, std::move(channels)));
  kv_cache_.insert(handle.id, pb);
  return pb;
}

Matrix GuardedBackend::matmul(const Matrix& a, const Matrix& b) {
  PDAC_REQUIRE(a.cols() == b.rows(), "GuardedBackend: inner dimensions must agree");
  if (bank_.usable_channels() == 0) return Matrix(a.rows(), b.cols());
  product_entry();  // may re-trim (and bump the epoch) before obtain_b
  if (cfg_.use_lane_table) table_.ensure(bank_);
  return run_guarded(a, BSource{&b, nullptr}, obtain_b(b, nullptr), nullptr);
}

Matrix GuardedBackend::matmul_cached(const Matrix& a, const Matrix& b,
                                     const nn::WeightHandle& weight) {
  PDAC_REQUIRE(a.cols() == b.rows(), "GuardedBackend: inner dimensions must agree");
  if (bank_.usable_channels() == 0) return Matrix(a.rows(), b.cols());
  product_entry();
  if (cfg_.use_lane_table) table_.ensure(bank_);
  return run_guarded(a, BSource{&b, nullptr}, obtain_b(b, &weight), &weight);
}

Matrix GuardedBackend::matmul_kv(const Matrix& a, const Matrix& kv,
                                 const nn::KvHandle& handle) {
  const bool cols_axis = handle.axis == nn::KvAxis::kCols;
  PDAC_REQUIRE(a.cols() == (cols_axis ? kv.cols() : kv.rows()),
               "GuardedBackend: inner dimensions must agree");
  const std::size_t n = cols_axis ? kv.rows() : kv.cols();
  if (bank_.usable_channels() == 0) return Matrix(a.rows(), n);
  product_entry();
  if (cfg_.use_lane_table) table_.ensure(bank_);
  BSource src;
  if (cols_axis) {
    src.bt = &kv;  // the history IS Bᵀ — no transposed copy
  } else {
    src.b = &kv;
  }
  return run_guarded(a, src, obtain_kv(src, handle), nullptr, &handle);
}

ptc::TileCheck GuardedBackend::run_tile(const ptc::Tile& tile, std::size_t t, const Matrix& ae,
                                        const Matrix& ae_gold, const Matrix& xsum,
                                        const Matrix& bdata, const ptc::PreparedOperand& pb,
                                        double rescale, Matrix& c,
                                        const std::vector<DotUpset>* upsets,
                                        const CodeMatrix* qae) const {
  const std::size_t k = ae.cols();
  // Numeric tier for the data dots (cfg_.path).  The integer tier needs
  // the staged codes on BOTH sides and the prepared (not live-re-encoded)
  // B data — the caller certifies that by passing `qae`; `&bdata ==
  // &pb.encoded` re-checks the B side.  Checksum references below always
  // stay double-precision golden dots, whatever the data tier.
  // `>= k` + physical-shape mirror rather than `== k`: rows-axis KV
  // appends pad the column capacity, and the dots below take k
  // explicitly, so the padded tail is never read.
  const bool quant_tile = qae != nullptr && pb.qcodes.cols() >= k &&
                          pb.qcodes.cols() == pb.encoded.cols() &&
                          pb.qcodes.rows() == pb.encoded.rows() && &bdata == &pb.encoded;
  const bool simd_tile = !quant_tile && cfg_.path != ptc::ExecutionPath::kKernel;
  const std::int32_t mc = bank_.quantizer().max_code();
  const double mc2 = static_cast<double>(mc) * static_cast<double>(mc);
  std::vector<double> rsum(tile.rows, 0.0);
  std::vector<double> csum(tile.cols, 0.0);
  for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
    const auto x = ae.row(i);
    for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
      const auto y = bdata.row(j);
      // Ascending p matches the serial chunk order (and DegradedBackend),
      // so accumulation is bit-identical across thread counts and to a
      // post-fence degraded re-run.  The fast tiers reassociate (SIMD)
      // or round exactly once (quant: Σ codes / max_code², exact int64
      // sum) — both inside the guard band the verdicts are judged by.
      double acc = 0.0;
      if (quant_tile) {
        acc = static_cast<double>(
                  simd::dot_i16(qae->row(i).data(), pb.qcodes.row(j).data(), k, mc)) /
              mc2;
      } else if (simd_tile) {
        acc = simd::dot(x.data(), y.data(), k);
      } else {
        for (std::size_t p = 0; p < k; ++p) acc += x[p] * y[p];
      }
      if (upsets != nullptr) {
        // Transient detector glitches land on the raw accumulator, so
        // the checksum lanes see the corrupted value too.
        for (const DotUpset& u : *upsets) {
          if (u.row == i && u.col == j) acc += u.delta;
        }
      }
      c(i, j) = acc * rescale;
      rsum[i - tile.row0] += acc;
      csum[j - tile.col0] += acc;
    }
  }

  ptc::TileCheck check;
  check.tile = t;
  const double mag = static_cast<double>(k);
  const double tol_row = ptc::guard_tolerance(cfg_.guard, k, tile.cols, mag);
  const double tol_col = ptc::guard_tolerance(cfg_.guard, k, tile.rows, mag);
  // Hysteresis band (DESIGN.md §16): three verdict zones per comparison.
  //   res ≤ tol             clean
  //   tol < res ≤ band·tol  drift — absorbed (recorded, no escalation)
  //   res > band·tol        excursion — mismatch, the ladder fires
  // band == 1 collapses the middle zone and reproduces the pre-drift
  // verdicts bit-for-bit.  NaN is always a mismatch, never "in band".
  const double band = std::max(1.0, cfg_.guard.drift_band);
  const auto note = [&check, band](double residual, double tol) {
    if (std::isnan(residual) || residual > check.worst_residual) {
      check.worst_residual = residual;
      check.tolerance = tol;
    }
    if (std::isnan(residual) || residual > band * tol) {
      check.ok = false;
    } else if (residual > tol) {
      check.drift_ratio = std::max(check.drift_ratio, residual / tol);
    }
  };
  // Out-of-band lane bookkeeping for single-error correction: one bad
  // row lane × one bad column lane pinpoints the corrupted element.
  // "Bad" is judged at the *outer* band edge, so lanes drifting inside
  // the band cannot blur a hard strike's single-error signature.
  std::size_t bad_rows = 0, bad_cols = 0;
  std::size_t sec_row = 0, sec_col = 0;
  double row_delta = 0.0, col_delta = 0.0;
  // Row lanes: Σ_j tile(i,j) vs ⟨golden x′_i, cached golden Σ_j y′_j⟩.
  // The column-only cheap mode skips them (and their spare-lane charge).
  if (!cfg_.guard.column_only) {
    const auto ysum = pb.checksum.row(tile.col0 / pb.checksum_stripe);
    for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
      const auto xr = ae_gold.row(i);
      double ref = 0.0;
      for (std::size_t p = 0; p < k; ++p) ref += xr[p] * ysum[p];
      const double res = rsum[i - tile.row0] - ref;
      note(std::abs(res), tol_row);
      if (std::isnan(res) || std::abs(res) > band * tol_row) {
        ++bad_rows;
        sec_row = i;
        row_delta = res;
      }
    }
  }
  // Column lanes: Σ_i tile(i,j) vs ⟨golden Σ_i x′_i, golden y′_j⟩.
  const auto xs = xsum.row(tile.row0 / cfg_.array_rows);
  for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
    const auto yr = pb.reference.row(j);
    double ref = 0.0;
    for (std::size_t p = 0; p < k; ++p) ref += xs[p] * yr[p];
    const double res = csum[j - tile.col0] - ref;
    note(std::abs(res), tol_col);
    if (std::isnan(res) || std::abs(res) > band * tol_col) {
      ++bad_cols;
      sec_col = j;
      col_delta = res;
    }
  }

  // Single-error correction: both residuals estimate the same raw
  // accumulator error, so when they agree (within both bands) the
  // element at the intersection is corrected digitally and no escalation
  // rung fires.  Lane-class faults corrupt whole encode rows/columns and
  // never present this signature, so they still escalate.  The agreement
  // window widens with the hysteresis band: a strike landing on lanes
  // drifting mid-band sees each delta contaminated by up to band·tol of
  // absorbed wander, and the correction may carry that much of it into
  // the element — bounded by exactly the error the band already admits.
  if (!check.ok && cfg_.guard.sec_correction && !cfg_.guard.column_only && bad_rows == 1 &&
      bad_cols == 1 && std::isfinite(row_delta) && std::isfinite(col_delta) &&
      std::abs(row_delta - col_delta) <= band * (tol_row + tol_col)) {
    c(sec_row, sec_col) -= row_delta * rescale;
    check.ok = true;
    check.corrected = 1;
  }
  return check;
}

std::size_t GuardedBackend::fence_diverged_lanes(const std::vector<std::size_t>& channels) {
  // Full calibration-table readback against the golden snapshot: the
  // escalation endpoint can afford to probe every code, which makes the
  // fence decision exact — a lane is fenced iff its transfer diverged
  // from the state the references were calibrated under.
  const std::int32_t max_code = bank_.quantizer().max_code();
  const std::size_t codes = static_cast<std::size_t>(max_code) * 2 + 1;
  std::size_t fenced = 0;
  std::size_t probes = 0;
  for (const std::size_t flat : implicated_lanes(channels)) {
    Lane& lane = bank_.lane(flat);
    if (lane.fenced) continue;
    bool diverged = false;
    for (std::size_t ci = 0; ci < codes; ++ci) {
      const auto code = static_cast<std::int32_t>(static_cast<std::int64_t>(ci) - max_code);
      const double out = lane.model.encode_code(code);
      ++probes;
      if (!(out == golden_[flat][ci])) {  // NaN-safe inequality
        diverged = true;
        break;
      }
    }
    if (diverged) {
      lane.fenced = true;
      ++fenced;
      monitor_->record_implicated_lane(flat);
    }
  }
  monitor_->record_probe_events(probes);
  if (fenced > 0) bank_.bump_epoch();
  return fenced;
}

ptc::EventCounter GuardedBackend::tile_events(const ptc::Tile& tile, std::size_t k,
                                              std::size_t usable_channels) const {
  // Mirrors PhotonicGemm's broadcast-amortized tile-step contract with
  // the reduction chunked over the surviving wavelengths.
  ptc::EventCounter ev;
  const std::size_t chunks = (k + usable_channels - 1) / usable_channels;
  ev.modulation_events = (tile.rows + tile.cols) * k;
  ev.ddot_ops = tile.rows * tile.cols * chunks;
  ev.detection_events = tile.rows * tile.cols * chunks;
  ev.macs = tile.rows * tile.cols * k;
  ev.adc_events = tile.rows * tile.cols;
  ev.cycles = chunks;
  return ev;
}

Matrix GuardedBackend::run_guarded(const Matrix& a, const BSource& bsrc,
                                   std::shared_ptr<const ptc::PreparedOperand> pb,
                                   const nn::WeightHandle* weight,
                                   const nn::KvHandle* kv) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = pb->cols;

  // A-side pipeline: normalize once, then dual-encode (current + golden)
  // under the operand's channel packing.
  const double a_scale = converters::max_abs_scale(a.data());
  Matrix an(m, k);
  for (std::size_t i = 0; i < a.size(); ++i) an.data()[i] = a.data()[i] / a_scale;
  Matrix ae(m, k);
  Matrix ae_gold(m, k);
  CodeMatrix qae;  // A-side int16 codes, staged only when the quant tier is live
  Matrix xsum;
  const std::size_t row_stripes = (m + cfg_.array_rows - 1) / cfg_.array_rows;
  const std::size_t col_stripes = (n + cfg_.array_cols - 1) / cfg_.array_cols;
  // Bank epoch each operand stripe's current-state encodes reflect: A row
  // stripes are stamped when encode_a runs, B column stripes start at the
  // prepared operand's epoch.  A stripe is re-encoded only when the epoch
  // has moved past its stamp (refresh_tile below).
  std::vector<std::uint64_t> a_epoch;
  std::vector<std::uint64_t> b_epoch(col_stripes, pb->epoch);
  const auto encode_a = [&](const std::vector<std::size_t>& channels) {
    a_epoch.assign(row_stripes, bank_.epoch());
    const std::size_t nl = channels.size();
    // qcodes may carry padded column capacity past the logical k
    // (rows-axis KV appends) — `>=` certifies the staged prefix.
    const bool quant = quant_live() && pb->qcodes.cols() >= k;
    if (quant) qae.resize(m, k);
    pool_->parallel_for(m, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t r = begin; r < end; ++r) {
        const auto src = an.row(r);
        auto cur = ae.row(r);
        auto gold = ae_gold.row(r);
        for (std::size_t p = 0; p < k; ++p) {
          const std::size_t ch = channels[p % nl];
          cur[p] = encode_current(0, ch, src[p]);
          gold[p] = golden_encode(0, ch, src[p]);
        }
        if (quant) {
          auto qrow = qae.row(r);
          for (std::size_t p = 0; p < k; ++p) {
            qrow[p] = table_.encode_code(0, channels[p % nl], src[p]);
          }
        }
      }
    });
    // A row-stripe checksums over the golden encodes.
    xsum.resize(row_stripes, k);
    std::fill(xsum.data().begin(), xsum.data().end(), 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const auto src = ae_gold.row(i);
      const auto dst = xsum.row(i / cfg_.array_rows);
      for (std::size_t p = 0; p < k; ++p) dst[p] += src[p];
    }
  };
  encode_a(pb->channels);

  Matrix c(m, n);
  const double rescale = a_scale * pb->scale;
  const std::vector<ptc::Tile> tiles =
      ptc::partition_tiles(m, n, cfg_.array_rows, cfg_.array_cols);
  std::vector<ptc::TileCheck> checks(tiles.size());

  ptc::GuardOutcome outcome;
  outcome.enabled = true;
  outcome.tiles_checked = tiles.size();

  // Data-side B encodings: the cached/prepared matrix until the epoch
  // moves past a column stripe; only then are a live copy and the
  // normalized Bᵀ it re-encodes from made.
  const Matrix* bdata = &pb->encoded;
  Matrix be_live;
  Matrix bn;
  // Bring one tile's operand stripes up to the bank's current state
  // through the live lanes.  An encode is a pure function of lane state
  // and input, and every lane-state write bumps the epoch, so a stripe
  // whose stamp equals the epoch already holds the bits a re-encode would
  // write — only stale stripes are re-encoded.
  const auto refresh_tile = [&](const ptc::Tile& tile) {
    const std::uint64_t now = bank_.epoch();
    const std::vector<std::size_t>& channels = pb->channels;
    const std::size_t nl = channels.size();
    std::uint64_t& ea = a_epoch[tile.row0 / cfg_.array_rows];
    if (ea != now) {
      for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
        const auto src = an.row(i);
        auto dst = ae.row(i);
        for (std::size_t p = 0; p < k; ++p) dst[p] = bank_.encode(0, channels[p % nl], src[p]);
      }
      ea = now;
    }
    std::uint64_t& eb = b_epoch[tile.col0 / cfg_.array_cols];
    if (eb != now) {
      if (bdata != &be_live) {
        bn = bsrc.bt != nullptr ? *bsrc.bt : bsrc.b->transposed();
        for (double& v : bn.data()) v /= pb->scale;
        be_live = pb->encoded;
        bdata = &be_live;
      }
      for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
        const auto src = bn.row(j);
        auto dst = be_live.row(j);
        for (std::size_t p = 0; p < k; ++p) dst[p] = bank_.encode(1, channels[p % nl], src[p]);
      }
      eb = now;
    }
  };

  // Transient upsets strike the initial pass only — a retry (or the SEC
  // correction that obviates it) sees clean hardware.
  const std::vector<DotUpset> upsets = std::move(pending_upsets_);
  pending_upsets_.clear();
  const std::vector<DotUpset>* initial_upsets = upsets.empty() ? nullptr : &upsets;

  // ---- initial pass -------------------------------------------------
  const bool storm = storm_ != nullptr && storm_steps_per_tile_ > 0;
  if (storm) {
    // Serialized tile timeline: the injector's clock advances before
    // every tile step, and each step sees its operand slices as the live
    // lanes encode them now, so a fault landing between tiles corrupts
    // exactly the tiles after it.
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      storm_clock_ += storm_steps_per_tile_;
      storm_->advance_to(storm_clock_);
      refresh_tile(tiles[t]);
      checks[t] = run_tile(tiles[t], t, ae, ae_gold, xsum, *bdata, *pb, rescale, c,
                           initial_upsets);
    }
  } else {
    const Matrix& bd = *bdata;
    // The staged codes ride along iff the quant tier certified this
    // product (qae sized by encode_a); run_tile re-checks per tile.
    const CodeMatrix* qa = qae.rows() == m ? &qae : nullptr;
    ptc::for_each_tile(*pool_, tiles, [&](std::size_t t, std::size_t) {
      checks[t] = run_tile(tiles[t], t, ae, ae_gold, xsum, bd, *pb, rescale, c, initial_upsets,
                           qa);
    });
  }
  {
    const std::size_t nl = pb->channels.size();
    const std::size_t chunks = (k + nl - 1) / nl;
    for (const ptc::Tile& tile : tiles) {
      events_ += tile_events(tile, k, nl);
      outcome.checksum_events += ptc::checksum_lane_events(tile.rows, tile.cols, k, chunks,
                                                           cfg_.guard.column_only);
    }
  }

  std::vector<std::size_t> bad;
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const ptc::TileCheck& check = checks[t];
    if (!check.ok) bad.push_back(t);
    outcome.tiles_corrected += check.corrected;
    if (std::isnan(check.worst_residual) || check.worst_residual > outcome.worst_residual) {
      outcome.worst_residual = check.worst_residual;
      outcome.worst_tolerance = check.tolerance;
    }
  }
  outcome.mismatched_tiles = bad.size();
  if (!bad.empty()) outcome.first_mismatch = bad.front();

  // Aggregate the final verdicts' absorbed-drift evidence (re-runs
  // overwrite their tile's check, so this reflects what the product
  // actually returned).
  const auto tally_drift = [&checks, &outcome] {
    for (const ptc::TileCheck& check : checks) {
      if (check.drift_ratio > 0.0) ++outcome.drift_tiles;
      outcome.worst_drift_ratio = std::max(outcome.worst_drift_ratio, check.drift_ratio);
    }
  };

  // Drift-evidence feed: one graded sample per product — the worst
  // residual/tolerance ratio of the initial pass — attributed to every
  // lane the packing used (one residual cannot name the lane).  Clean
  // products feed ratios ≪ 1 and decay the EWMA; in-band drift feeds
  // (1, band]; excursions feed capped large ratios.
  {
    double ratio = 0.0;
    for (const ptc::TileCheck& check : checks) {
      if (std::isnan(check.worst_residual)) {
        ratio = std::numeric_limits<double>::quiet_NaN();
        break;
      }
      if (check.tolerance > 0.0) ratio = std::max(ratio, check.worst_residual / check.tolerance);
    }
    tracker_.observe_residual(implicated_lanes(pb->channels), ratio);
  }

  // ---- escalation ladder -------------------------------------------
  EscalationState state;
  while (!bad.empty()) {
    // The windowed governor can veto the re-trim rung: the ladder then
    // degrades past it (retry → fence) instead of stalling, and the veto
    // is visible as a governed re-trim.
    const bool retrim_ok = retrim_allowed();
    const GuardAction action = policy_.next(state, retrim_ok);
    if (!retrim_ok && policy_.next(state, true) == GuardAction::kRetrim) {
      monitor_->record_governed_retrim();
    }
    monitor_->record_action(action);
    if (action == GuardAction::kGiveUp) break;

    bool repacked = false;
    switch (action) {
      case GuardAction::kRetry:
        ++state.retries;
        break;
      case GuardAction::kRetrim: {
        ++state.retrims;
        const SelfTestReport report =
            run_self_test(bank_, implicated_lanes(pb->channels), policy_.config().self_test);
        monitor_->record_self_test(report);
        observe_probes(report);
        note_retrim();
        recalibrate();  // post-self-test lane state is trusted
        repacked = true;
        break;
      }
      case GuardAction::kFence: {
        ++state.fences;
        fence_diverged_lanes(pb->channels);
        repacked = true;
        break;
      }
      default:
        break;
    }

    if (repacked) {
      std::vector<std::size_t> channels = surviving_channels();
      if (channels.empty()) {
        // Every channel fenced mid-recovery: the accelerator is offline.
        // Zero result, mirroring DegradedBackend's outage contract.
        monitor_->record_action(GuardAction::kGiveUp);
        tally_drift();
        monitor_->record_product(outcome);
        return Matrix(m, n);
      }
      // Re-prepare against the repaired/repacked bank: fresh current +
      // golden encodings and checksum stripes; refresh the cache so the
      // next product starts warm again.  The rung moved the epoch, so
      // re-ensure the coefficient table first (we are between parallel
      // regions here).
      if (cfg_.use_lane_table) table_.ensure(bank_);
      auto rebuilt =
          std::make_shared<ptc::PreparedOperand>(prepare_b_src(bsrc, std::move(channels)));
      if (weight != nullptr) cache_.insert(weight->id, weight->version, rebuilt);
      if (kv != nullptr) {
        // The resident KV entry described the pre-escalation bank; the
        // next decode step appends onto this rebuilt one instead.
        kv_cache_.insert(kv->id, rebuilt);
        kv_cache_.record_rebuild();
      }
      pb = rebuilt;
      encode_a(pb->channels);
      b_epoch.assign(col_stripes, pb->epoch);
      be_live = Matrix();
      bn = Matrix();
      bdata = &pb->encoded;
    }

    // Re-run the mismatching tiles on their operand slices as the live
    // lanes encode them now.  Only a storm step can leave a stripe stale
    // here; after a repack every stripe is current.
    const std::size_t nl = pb->channels.size();
    const std::size_t chunks = (k + nl - 1) / nl;
    for (const std::size_t t : bad) {
      const ptc::Tile& tile = tiles[t];
      refresh_tile(tile);
      checks[t] = run_tile(tile, t, ae, ae_gold, xsum, *bdata, *pb, rescale, c);
      outcome.tiles_corrected += checks[t].corrected;
      const ptc::EventCounter ev = tile_events(tile, k, nl);
      events_ += ev;
      monitor_->record_retry_events(ev);
      outcome.checksum_events += ptc::checksum_lane_events(tile.rows, tile.cols, k, chunks,
                                                           cfg_.guard.column_only);
    }
    std::vector<std::size_t> still_bad;
    for (const std::size_t t : bad) {
      if (!checks[t].ok) still_bad.push_back(t);
    }
    bad = std::move(still_bad);
  }

  tally_drift();
  monitor_->record_product(outcome);
  return c;
}

}  // namespace pdac::faults
