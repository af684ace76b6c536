#include "faults/guarded_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/require.hpp"
#include "common/simd.hpp"
#include "converters/quantizer.hpp"

namespace pdac::faults {

GuardedBackend::GuardedBackend(LaneBank& bank, GuardedBackendConfig cfg,
                               HealthMonitor* shared_monitor)
    : bank_(bank),
      cfg_(cfg),
      kernel_(ptc::Ddot{}, ptc::DotEngineConfig{.wavelengths = bank.wavelengths()}),
      pool_(std::make_unique<ThreadPool>(cfg.threads)),
      tile_sums_(pool_->size() * (cfg.array_rows + cfg.array_cols)),
      stripes_(pool_->size()),
      cache_(cfg.cache),
      kv_cache_(cfg.kv_cache),
      policy_(cfg.escalation),
      tracker_(cfg.drift) {
  PDAC_REQUIRE(cfg_.array_rows >= 1 && cfg_.array_cols >= 1,
               "GuardedBackend: array dimensions must be positive");
  PDAC_REQUIRE(cfg_.path == ptc::ExecutionPath::kKernel ||
                   cfg_.path == ptc::ExecutionPath::kKernelSimd,
               "GuardedBackend: path must be kKernel or kKernelSimd (a lane bank has no device "
               "graph, and the integer tier is retired)");
  if (shared_monitor != nullptr) monitor_ = shared_monitor;
  tracker_.resize(bank_.lanes());
  recalibrate();  // construction is a trusted calibration point
}

void GuardedBackend::recalibrate() {
  // Unconditional, never ensure(): a trusted point need not move the
  // epoch (a clean self-test re-trims nothing), yet golden must re-pin.
  golden_.rebuild(bank_);
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
      run_self_test(bank_, implicated_lanes(bank_.surviving_channels()), e.self_test);
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
  const SelfTestReport report = run_self_test(bank_, implicated_lanes(bank_.surviving_channels()),
                                              policy_.config().self_test);
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

LaneEncoder GuardedBackend::lane_encoder(std::size_t rail,
                                         const std::vector<std::size_t>& channels) const {
  return LaneEncoder(bank_, channels, rail, table_, &golden_);
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

std::shared_ptr<ptc::PreparedOperand> GuardedBackend::obtain(nn::OperandCache& cache,
                                                             std::uint64_t id,
                                                             std::uint64_t version,
                                                             const Matrix& src,
                                                             ptc::GrowAxis axis) {
  // Code operands: the quantizer codes of the normalized B side, which no
  // lane state enters — each tile step decodes them through the tables it
  // runs under, and sums its golden stripe itself.  A resident entry is
  // grown (a KV append) or confirmed, whatever a fault, re-trim or fence
  // did to the lanes since it was built.
  const ptc::OperandSpec spec{.codes = &bank_.quantizer()};
  return cache.obtain(
      id, version,
      [&](ptc::PreparedOperand& pb) {
        return ptc::append_operand(pb, src, axis, spec, {}, *pool_, stage_);
      },
      [&] { return ptc::prepare_operand(src, axis, spec, {}, *pool_, stage_); });
}

Matrix GuardedBackend::matmul(const Matrix& a, const Matrix& b) {
  return run_product(a, b, ptc::GrowAxis::kRows, cache_, 0, 0);
}

Matrix GuardedBackend::matmul_cached(const Matrix& a, const Matrix& b,
                                     const nn::WeightHandle& weight) {
  return run_product(a, b, ptc::GrowAxis::kRows, cache_, weight.id, weight.version);
}

Matrix GuardedBackend::matmul_kv(const Matrix& a, const Matrix& kv,
                                 const nn::KvHandle& handle) {
  // For the scores operand the history IS Bᵀ — no transposed copy.
  return run_product(a, kv, handle.axis, kv_cache_, handle.id, 0);
}

void GuardedBackend::decode_stripe(const ptc::PreparedOperand& pb, const ptc::Tile& tile,
                                   const LaneEncoder& lanes, Stripe& out) const {
  // Every column of the tile decodes its codes through the current lane
  // state.  While golden is pinned at the bank's epoch the golden and
  // current tables hold the same bits (every lane-state write moves the
  // epoch), so the data stripe is the golden stripe too; otherwise the
  // golden amplitudes are decoded beside it.
  const std::size_t k = pb.rows;
  const bool guarded = cfg_.guard.enabled;
  out.copy = guarded && !golden_.fresh(bank_);
  out.data.resize(tile.cols, k + kStripePad);
  if (out.copy) out.golden.resize(tile.cols, k + kStripePad);
  for (std::size_t j = 0; j < tile.cols; ++j) {
    lanes.decode(pb.codes.row(tile.col0 + j).first(k), out.data.row(j).first(k),
                 out.copy ? out.golden.row(j).first(k) : std::span<double>{});
  }
  if (!guarded) return;
  // The row lanes' checksum Σⱼ y′ⱼ: from exact zero in ascending j.
  const Matrix& golden = out.copy ? out.golden : out.data;
  out.ysum.assign(k, 0.0);
  simd::add_rows(golden.row(0).data(), golden.cols(), tile.cols, k, out.ysum.data());
}

ptc::TileCheck GuardedBackend::run_tile(const ptc::Tile& tile, std::size_t t, const Matrix& ae,
                                        const Matrix& ae_gold, const Matrix& xsum,
                                        const Stripe& b, double rescale, Matrix& c,
                                        std::span<double> sums,
                                        const std::vector<DotUpset>* upsets) const {
  // The kernel writes the tile's raw dots into c: ascending p on the
  // scalar tier, one blocked dot per output (common/simd.hpp) on the SIMD
  // tier, bit-identical at any thread count and to a post-fence re-run.
  // Checksum references stay double-precision golden dots on either tier.
  if (cfg_.path == ptc::ExecutionPath::kKernelSimd) {
    kernel_.run_tile_fast(tile, ae, b.data, {}, {}, c, tile.col0);
  } else {
    kernel_.run_tile(tile, ae, b.data, c, tile.col0);
  }
  if (upsets != nullptr) {
    // Transient detector glitches land on the raw accumulator, so the
    // checksum lanes see the corrupted value too.
    for (const DotUpset& u : *upsets) {
      if (u.row >= tile.row0 && u.row < tile.row0 + tile.rows && u.col >= tile.col0 &&
          u.col < tile.col0 + tile.cols) {
        c(u.row, u.col) += u.delta;
      }
    }
  }
  if (!cfg_.guard.enabled) {
    ptc::fold_tile(tile, rescale, c);
    return {};
  }
  const std::span<double> rsum = sums.first(tile.rows);
  const std::span<double> csum = sums.subspan(tile.rows, tile.cols);
  ptc::fold_tile(tile, rescale, c, rsum, csum);
  ptc::TileCheck check =
      ptc::verify_tile(cfg_.guard, tile, t, rsum, csum, ae_gold,
                       xsum.row(tile.row0 / cfg_.array_rows), b.copy ? b.golden : b.data,
                       tile.col0, b.ysum);
  // Single-error correction: the element at the located site is
  // corrected digitally from its residual and no escalation rung fires.
  // The correction may carry up to band·tol of absorbed drift into the
  // element — bounded by exactly the error the band already admits.
  if (check.single_error) {
    const ptc::ErrorSite& site = *check.single_error;
    c(site.row, site.col) -= site.delta * rescale;
    check.ok = true;
    check.corrected = 1;
  }
  return check;
}

std::size_t GuardedBackend::fence_diverged_lanes(const std::vector<std::size_t>& channels) {
  // Full calibration-table readback against the golden snapshot: the
  // escalation endpoint can afford to probe every code, which makes the
  // fence decision exact — a lane is fenced iff its transfer diverged
  // from the state the references were calibrated under.  The readback
  // is the current table's row, brought up to the bank first.
  table_.ensure(bank_);
  const std::int32_t max_code = bank_.quantizer().max_code();
  std::size_t fenced = 0;
  std::size_t probes = 0;
  for (const std::size_t flat : implicated_lanes(channels)) {
    Lane& lane = bank_.lane(flat);
    if (lane.fenced) continue;
    bool diverged = false;
    for (std::int32_t code = -max_code; code <= max_code; ++code) {
      ++probes;
      if (!(table_.at(flat, code) == golden_.at(flat, code))) {  // NaN-safe inequality
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

std::span<double> GuardedBackend::worker_sums(std::size_t worker) {
  const std::size_t slot = cfg_.array_rows + cfg_.array_cols;
  return std::span<double>(tile_sums_).subspan(worker * slot, slot);
}

Matrix GuardedBackend::run_product(const Matrix& a, const Matrix& bsrc, ptc::GrowAxis baxis,
                                   nn::OperandCache& cache, std::uint64_t id,
                                   std::uint64_t version) {
  const bool cols_axis = baxis == ptc::GrowAxis::kCols;
  PDAC_REQUIRE(a.cols() == (cols_axis ? bsrc.cols() : bsrc.rows()),
               "GuardedBackend: inner dimensions must agree");
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = cols_axis ? bsrc.rows() : bsrc.cols();
  if (bank_.usable_channels() == 0) return Matrix(m, n);
  product_entry();  // may re-trim (and bump the epoch) before the packing is read
  // The packing: reduction position p rides channels[p % size].  Read
  // from the bank here and again after every ladder rung.  A proactive
  // re-trim that fenced every lane leaves the same outage as above.
  std::vector<std::size_t> channels = bank_.surviving_channels();
  if (channels.empty()) return Matrix(m, n);
  table_.ensure(bank_);
  const std::shared_ptr<ptc::PreparedOperand> pb = obtain(cache, id, version, bsrc, baxis);
  const bool guarded = cfg_.guard.enabled;

  // A-side pipeline: normalize once, then encode under the packing —
  // current state, plus golden when guarded — into backend scratch that
  // every element is written to.
  const double a_scale = converters::max_abs_scale(a.data());
  Matrix& an = an_;
  an.resize(m, k);
  for (std::size_t i = 0; i < a.size(); ++i) an.data()[i] = a.data()[i] / a_scale;
  Matrix& ae = ae_;
  ae.resize(m, k);
  Matrix& ae_gold = ae_gold_;
  ae_gold.resize(guarded ? m : 0, k);
  Matrix xsum;
  const std::size_t row_stripes = (m + cfg_.array_rows - 1) / cfg_.array_rows;
  const std::size_t col_stripes = (n + cfg_.array_cols - 1) / cfg_.array_cols;
  // Bank epoch each A row stripe's current-state encodes reflect, stamped
  // when encode_a runs.  A stripe is re-encoded only when the epoch has
  // moved past its stamp (refresh_tile below).  The B side needs no
  // stamps: every tile step decodes its codes under the bank as it is.
  std::vector<std::uint64_t> a_epoch;
  const auto encode_a = [&] {
    a_epoch.assign(row_stripes, bank_.epoch());
    const LaneEncoder encode = lane_encoder(0, channels);
    pool_->parallel_for(m, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t r = begin; r < end; ++r) {
        encode(an.row(r), ae.row(r), guarded ? ae_gold.row(r) : std::span<double>{});
      }
    });
    if (guarded) ptc::stripe_sums(ae_gold, cfg_.array_rows, xsum);
  };
  encode_a();

  Matrix c(m, n);
  const double rescale = a_scale * pb->scale;
  const std::vector<ptc::Tile> tiles =
      ptc::partition_tiles(m, n, cfg_.array_rows, cfg_.array_cols);
  std::vector<ptc::TileCheck> checks(tiles.size());

  ptc::GuardOutcome outcome;
  outcome.enabled = true;
  outcome.tiles_checked = tiles.size();

  // Bring one serial tile step up to the bank's current state: refresh
  // the current table (a per-lane refresh evaluates only the lanes whose
  // model moved), then re-encode a stale A stripe from it; the B stripe
  // is decoded afresh anyway.  An encode is a pure function of lane state
  // and input, and every lane-state write bumps the epoch, so a stripe
  // whose stamp equals the epoch already holds the bits a re-encode would
  // write.  Storm steps and retries run serially, so the table may be
  // refreshed here.
  const auto refresh_tile = [&](const ptc::Tile& tile) {
    table_.ensure(bank_);
    std::uint64_t& ea = a_epoch[tile.row0 / cfg_.array_rows];
    if (ea != bank_.epoch()) {
      const LaneEncoder encode(bank_, channels, 0, table_);
      for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
        encode(an.row(i), ae.row(i));
      }
      ea = bank_.epoch();
    }
  };
  // One serial tile step (storm or retry): refresh, decode, run.  The B
  // decoder is rebuilt only when the epoch or the packing moved.
  std::optional<LaneEncoder> serial_lanes;
  std::uint64_t lanes_epoch = 0;
  const auto serial_tile = [&](std::size_t t, const std::vector<DotUpset>* upsets) {
    refresh_tile(tiles[t]);
    if (!serial_lanes || lanes_epoch != bank_.epoch()) {
      serial_lanes.emplace(lane_encoder(1, channels));
      lanes_epoch = bank_.epoch();
    }
    decode_stripe(*pb, tiles[t], *serial_lanes, stripes_.front());
    return run_tile(tiles[t], t, ae, ae_gold, xsum, stripes_.front(), rescale, c,
                    worker_sums(0), upsets);
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
    // lanes convert them now, so a fault landing between tiles corrupts
    // exactly the tiles after it.
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      storm_clock_ += storm_steps_per_tile_;
      storm_->advance_to(storm_clock_);
      checks[t] = serial_tile(t, initial_upsets);
    }
  } else {
    // Lane state holds for the whole pass: each worker decodes a column
    // stripe once and runs every tile of it.
    const LaneEncoder lanes = lane_encoder(1, channels);
    pool_->parallel_for(col_stripes, [&](std::size_t begin, std::size_t end, std::size_t worker) {
      for (std::size_t s = begin; s < end; ++s) {
        decode_stripe(*pb, tiles[s], lanes, stripes_[worker]);
        for (std::size_t t = s; t < tiles.size(); t += col_stripes) {
          checks[t] = run_tile(tiles[t], t, ae, ae_gold, xsum, stripes_[worker], rescale, c,
                               worker_sums(worker), initial_upsets);
        }
      }
    });
  }
  // The executors' rule: B broadcast, one ADC sample per output.
  const ptc::TileGrid grid{cfg_.array_rows, cfg_.array_cols, channels.size()};
  events_ += ptc::product_events(m, k, n, grid, ptc::Residency::kBroadcast,
                                 ptc::kSamplePerOutput);
  outcome.checksum_events += ptc::checksum_product_events(m, k, n, grid);
  // Unguarded, the product ends here: no verdicts to fold, drift to
  // feed, ladder to climb or outcome to record.
  if (!guarded) return c;

  std::vector<std::size_t> bad;
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const ptc::TileCheck& check = checks[t];
    if (!check.ok) bad.push_back(t);
    outcome.tiles_corrected += check.corrected;
    ptc::fold_worst_residual(check.worst_residual, check.tolerance, outcome.worst_residual,
                             outcome.worst_tolerance);
  }
  outcome.mismatched_tiles = bad.size();
  if (!bad.empty()) outcome.first_mismatch = bad.front();

  // Aggregate the final verdicts' absorbed-drift evidence (re-runs
  // overwrite their tile's check, so this reflects what the product
  // actually returned).
  const auto tally_drift = [&checks, &outcome] {
    for (const ptc::TileCheck& check : checks) outcome.tally_drift(check);
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
    tracker_.observe_residual(implicated_lanes(channels), ratio);
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
            run_self_test(bank_, implicated_lanes(channels), policy_.config().self_test);
        monitor_->record_self_test(report);
        observe_probes(report);
        note_retrim();
        recalibrate();  // post-self-test lane state is trusted
        repacked = true;
        break;
      }
      case GuardAction::kFence: {
        ++state.fences;
        fence_diverged_lanes(channels);
        repacked = true;
        break;
      }
      default:
        break;
    }

    if (repacked) {
      channels = bank_.surviving_channels();
      if (channels.empty()) {
        // Every channel fenced mid-recovery: the accelerator is offline,
        // so the product gets the outage's zero result.
        monitor_->record_action(GuardAction::kGiveUp);
        tally_drift();
        monitor_->record_product(outcome);
        return Matrix(m, n);
      }
      // The operand in hand still holds the right codes.  The rung moved
      // the epoch, so re-ensure the current table (we are between parallel
      // regions here) and re-encode A under the new packing.
      table_.ensure(bank_);
      serial_lanes.reset();  // the packing, and after a re-trim golden, moved
      encode_a();
    }

    // Re-run the mismatching tiles on their operand slices as the live
    // lanes convert them now.  Only a storm step can leave an A stripe
    // stale here; after a repack every stripe is current.
    const std::size_t nl = channels.size();
    const std::size_t chunks = (k + nl - 1) / nl;
    for (const std::size_t t : bad) {
      const ptc::Tile& tile = tiles[t];
      checks[t] = serial_tile(t, nullptr);
      outcome.tiles_corrected += checks[t].corrected;
      const ptc::EventCounter ev = ptc::tile_step_events(
          tile.rows, tile.cols, k, nl, ptc::Residency::kBroadcast, ptc::kSamplePerOutput);
      events_ += ev;
      monitor_->record_retry_events(ev);
      outcome.checksum_events += ptc::checksum_lane_events(tile.rows, tile.cols, k, chunks);
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
