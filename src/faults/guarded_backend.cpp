#include "faults/guarded_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/require.hpp"
#include "converters/quantizer.hpp"

namespace pdac::faults {

GuardedBackend::GuardedBackend(LaneBank& bank, GuardedBackendConfig cfg,
                               HealthMonitor* shared_monitor)
    : bank_(bank),
      cfg_(cfg),
      kernel_(ptc::Ddot{}, ptc::DotEngineConfig{.wavelengths = bank.wavelengths()}),
      pool_(std::make_unique<ThreadPool>(cfg.threads)),
      tile_sums_(pool_->size() * (cfg.array_rows + cfg.array_cols)),
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
  return LaneEncoder{bank_, channels, rail, &table_, &golden_};
}

ptc::OperandSpec GuardedBackend::operand_spec() const {
  // Guarded, dual encode: data through the lanes' CURRENT state,
  // references through the GOLDEN snapshot.  A golden snapshot pinned at
  // the bank's current epoch holds the bits the current table holds
  // (every lane-state write moves the epoch), so `encoded` is then the
  // golden copy too and no second one is staged; a fault or fence moves
  // the epoch past golden, and operands built after it stage one.  The
  // column-only cheap mode never runs the row lanes the checksum stripes
  // feed, so it skips building them.
  const bool guarded = cfg_.guard.enabled;
  return ptc::OperandSpec{
      .epoch = bank_.epoch(),
      .channels = bank_.surviving_channels(),
      .checksum_stripe = guarded && !cfg_.guard.column_only ? cfg_.array_cols : 0,
      .reference = guarded && !golden_.fresh(bank_)};
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

std::shared_ptr<const ptc::PreparedOperand> GuardedBackend::obtain(nn::OperandCache& cache,
                                                                   std::uint64_t id,
                                                                   std::uint64_t version,
                                                                   const Matrix& src,
                                                                   ptc::GrowAxis axis) {
  // Any re-trim or fence since the entry was stamped moved the epoch, so
  // the lookup already missed: its encodings and golden references
  // describe a bank that no longer exists.  A fence that landed without a
  // bump_epoch() changes only the packing, and the append refuses that;
  // it refuses an entry's golden copy too once a re-pin at the same
  // epoch drops the copy from the spec, so the rebuild draws every
  // reference from the current golden.
  const ptc::OperandSpec spec = operand_spec();
  const LaneEncoder encode = lane_encoder(1, spec.channels);
  Matrix stage;
  return cache.obtain(
      id, version, spec.epoch,
      [&](ptc::PreparedOperand& pb) {
        return ptc::append_operand(pb, src, axis, spec, encode, *pool_, stage);
      },
      [&] { return ptc::prepare_operand(src, axis, spec, encode, *pool_, stage); });
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

ptc::TileCheck GuardedBackend::run_tile(const ptc::Tile& tile, std::size_t t, const Matrix& ae,
                                        const Matrix& ae_gold, const Matrix& xsum,
                                        const Matrix& bdata, const ptc::PreparedOperand& pb,
                                        double rescale, Matrix& c, std::span<double> sums,
                                        const std::vector<DotUpset>* upsets) const {
  // The kernel writes the tile's raw dots into c (rescale 1.0, no tile
  // sums): ascending p on the scalar tier, one blocked dot per output
  // (common/simd.hpp) on the SIMD tier, bit-identical at any thread count
  // and to a post-fence re-run.  Checksum references stay
  // double-precision golden dots on either tier.
  if (cfg_.path == ptc::ExecutionPath::kKernelSimd) {
    kernel_.run_tile_fast(tile, ae, bdata, {}, {}, 1.0, c);
  } else {
    kernel_.run_tile(tile, ae, bdata, 1.0, c);
  }
  const std::span<double> rsum = sums.first(tile.rows);
  const std::span<double> csum = sums.subspan(tile.rows, tile.cols);
  std::fill(rsum.begin(), rsum.end(), 0.0);
  std::fill(csum.begin(), csum.end(), 0.0);
  for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
    for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
      double acc = c(i, j);
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
  if (!cfg_.guard.enabled) return {};

  ptc::TileCheck check = ptc::verify_tile(cfg_.guard, tile, t, rsum, csum, ae_gold,
                                          xsum.row(tile.row0 / cfg_.array_rows), pb);
  // Single-error correction: the element at the located site is
  // corrected digitally from its residual and no escalation rung fires.
  // The correction may carry up to band·tol of absorbed drift into the
  // element — bounded by exactly the error the band already admits.
  if (cfg_.guard.sec_correction && check.single_error) {
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
  // from the state the references were calibrated under.
  const std::int32_t max_code = bank_.quantizer().max_code();
  std::size_t fenced = 0;
  std::size_t probes = 0;
  for (const std::size_t flat : implicated_lanes(channels)) {
    Lane& lane = bank_.lane(flat);
    if (lane.fenced) continue;
    bool diverged = false;
    for (std::int32_t code = -max_code; code <= max_code; ++code) {
      const double out = lane.model.encode_code(code);
      ++probes;
      if (!(out == golden_.at(flat, code))) {  // NaN-safe inequality
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
  product_entry();  // may re-trim (and bump the epoch) before obtain
  table_.ensure(bank_);
  std::shared_ptr<const ptc::PreparedOperand> pb = obtain(cache, id, version, bsrc, baxis);
  const bool guarded = cfg_.guard.enabled;

  // A-side pipeline: normalize once, then encode under the operand's
  // channel packing — current state, plus golden when guarded.
  const double a_scale = converters::max_abs_scale(a.data());
  Matrix an(m, k);
  for (std::size_t i = 0; i < a.size(); ++i) an.data()[i] = a.data()[i] / a_scale;
  Matrix ae(m, k);
  Matrix ae_gold(guarded ? m : 0, k);
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
    const LaneEncoder encode = lane_encoder(0, channels);
    pool_->parallel_for(m, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t r = begin; r < end; ++r) {
        encode(an.row(r), 0, ae.row(r), guarded ? ae_gold.row(r) : std::span<double>{});
      }
    });
    if (guarded) ptc::stripe_sums(ae_gold, cfg_.array_rows, xsum);
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
  // Bring one tile's operand stripes up to the bank's current state.  An
  // encode is a pure function of lane state and input, and every
  // lane-state write bumps the epoch, so a stripe whose stamp equals the
  // epoch already holds the bits a re-encode would write — only stale
  // stripes are re-encoded.  They read the current coefficient table
  // when it is fresh and the live lane models otherwise, the same bits
  // either way.  A rebuild costs lanes · codes model evaluations and a
  // live re-encode one per element, so a stale table is rebuilt only
  // once the stale elements met at the current epoch (this step's
  // included) reach that count: a discrete fault's steps soon pay for
  // the table and share it, while a bias walk, which moves the epoch
  // every step, keeps narrow stripes on the live models.  Storm steps
  // and retries run serially, so the table may be rebuilt here.
  const std::size_t table_evals =
      bank_.lanes() * (2 * static_cast<std::size_t>(bank_.quantizer().max_code()) + 1);
  std::uint64_t live_epoch = bank_.epoch();
  std::size_t live_evals = 0;
  const auto refresh_tile = [&](const ptc::Tile& tile) {
    const std::uint64_t now = bank_.epoch();
    std::uint64_t& ea = a_epoch[tile.row0 / cfg_.array_rows];
    std::uint64_t& eb = b_epoch[tile.col0 / cfg_.array_cols];
    if (ea == now && eb == now) return;
    if (!table_.fresh(bank_)) {
      if (live_epoch != now) {
        live_epoch = now;
        live_evals = 0;
      }
      live_evals += ((ea != now ? tile.rows : 0) + (eb != now ? tile.cols : 0)) * k;
      if (live_evals >= table_evals) table_.rebuild(bank_);
    }
    if (ea != now) {
      const LaneEncoder live{bank_, pb->channels, 0, &table_};
      for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
        live(an.row(i), 0, ae.row(i), {});
      }
      ea = now;
    }
    if (eb != now) {
      if (bdata != &be_live) {
        ptc::stage_normalized_bt(bsrc, baxis, pb->scale, bn);
        be_live = pb->encoded;
        bdata = &be_live;
      }
      const LaneEncoder live{bank_, pb->channels, 1, &table_};
      for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
        live(bn.row(j), 0, be_live.row(j).first(k), {});
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
                           worker_sums(0), initial_upsets);
    }
  } else {
    const Matrix& bd = *bdata;
    ptc::for_each_tile(*pool_, tiles, [&](std::size_t t, std::size_t worker) {
      checks[t] = run_tile(tiles[t], t, ae, ae_gold, xsum, bd, *pb, rescale, c,
                           worker_sums(worker), initial_upsets);
    });
  }
  {
    const std::size_t nl = pb->channels.size();
    const std::size_t chunks = (k + nl - 1) / nl;
    for (const ptc::Tile& tile : tiles) {
      events_ += ptc::tile_step_events(tile.rows, tile.cols, k, nl);
      outcome.checksum_events += ptc::checksum_lane_events(tile.rows, tile.cols, k, chunks,
                                                           cfg_.guard.column_only);
    }
  }
  // Unguarded, the product ends here: no verdicts to fold, drift to
  // feed, ladder to climb or outcome to record.
  if (!guarded) return c;

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
      const ptc::OperandSpec spec = operand_spec();
      if (spec.channels.empty()) {
        // Every channel fenced mid-recovery: the accelerator is offline,
        // so the product gets the outage's zero result.
        monitor_->record_action(GuardAction::kGiveUp);
        tally_drift();
        monitor_->record_product(outcome);
        return Matrix(m, n);
      }
      // Re-prepare against the repaired/repacked bank: fresh current
      // encodings, a golden copy if golden still differs (a fence does
      // not re-pin it) and checksum stripes; refresh the cache so the
      // next product starts warm again.  The rung moved the epoch, so
      // re-ensure the coefficient table first (we are between parallel
      // regions here).
      table_.ensure(bank_);
      Matrix stage;
      auto rebuilt = std::make_shared<ptc::PreparedOperand>(ptc::prepare_operand(
          bsrc, baxis, spec, lane_encoder(1, spec.channels), *pool_, stage));
      if (id != 0) {
        // The resident entry described the pre-escalation bank; the next
        // product reuses (or, for KV, appends onto) this rebuilt one.
        cache.insert(id, version, rebuilt);
        cache.record_rebuild();
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
      checks[t] = run_tile(tile, t, ae, ae_gold, xsum, *bdata, *pb, rescale, c, worker_sums(0));
      outcome.tiles_corrected += checks[t].corrected;
      const ptc::EventCounter ev = ptc::tile_step_events(tile.rows, tile.cols, k, nl);
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
