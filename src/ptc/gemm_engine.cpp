#include "ptc/gemm_engine.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/require.hpp"
#include "common/simd.hpp"
#include "converters/quantizer.hpp"

namespace pdac::ptc {

ExecutionPath fastest_path() {
  return simd::has_fast_path() ? ExecutionPath::kKernelSimd : ExecutionPath::kKernel;
}

PhotonicGemm::PhotonicGemm(const core::ModulatorDriver& driver, GemmConfig cfg)
    : cfg_(cfg),
      engine_(driver, cfg.dot),
      kernel_(engine_),
      pool_(std::make_unique<ThreadPool>(cfg.threads)) {
  PDAC_REQUIRE(cfg_.array_rows >= 1 && cfg_.array_cols >= 1,
               "PhotonicGemm: array dimensions must be positive");
  PDAC_REQUIRE(cfg_.path != ExecutionPath::kKernelQuant,
               "PhotonicGemm: the integer tier is retired; use ptc::fastest_path for the "
               "fastest tier");
  worker_ddots_.reserve(pool_->size());
  for (std::size_t w = 0; w < pool_->size(); ++w) {
    worker_ddots_.push_back(engine_.make_worker_ddot());
  }
  worker_scratch_.resize(pool_->size());
  sum_scratch_.resize(pool_->size() * (cfg_.array_rows + cfg_.array_cols));
}

GemmResult PhotonicGemm::multiply(const Matrix& a, const Matrix& b) const {
  return multiply_prepared(a, prepare_b(b));
}

namespace {

/// The max-abs fold of converters::max_abs_scale without its all-zero
/// fallback — the raw running maximum PreparedOperand::abs_max records so
/// appends can prove the fresh scale would come out bitwise identical.
/// std::max ignores NaN whichever side it lands on, so the fold is
/// order-independent — B and Bᵀ sources see the same value over the
/// transposed element order.
double raw_abs_max(std::span<const double> values) {
  double m = 0.0;
  for (const double v : values) m = std::max(m, std::abs(v));
  return m;
}

std::size_t stripe_count(std::size_t n, std::size_t stripe) { return (n + stripe - 1) / stripe; }

/// Encode the staged rows into operand rows [row0, row0 + stage.rows()),
/// reduction positions [p0, p0 + stage.cols()).  Rows are disjoint, so
/// the sweep is parallel; every encoder is a pure lookup, so the
/// partitioning cannot change a single bit.
void encode_rows(PreparedOperand& pb, const OperandSpec& spec, const Matrix& stage,
                 std::size_t row0, std::size_t p0, const RowEncoder& encode, ThreadPool& pool) {
  const std::size_t len = stage.cols();
  pool.parallel_for(stage.rows(), [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t r = begin; r < end; ++r) {
      const std::size_t j = row0 + r;
      encode(stage.row(r), p0, pb.encoded.row(j).subspan(p0, len),
             spec.reference ? pb.reference.row(j).subspan(p0, len) : std::span<double>{});
    }
  });
}

/// Fold golden columns [j0, j1) over reduction positions [p0, p1) into
/// their checksum stripes.  Ascending j is the fresh prepare's order, so
/// an append continuing the running sums lands on the same doubles.
void fold_stripes(PreparedOperand& pb, std::size_t j0, std::size_t j1, std::size_t p0,
                  std::size_t p1) {
  const Matrix& golden = pb.reference.size() > 0 ? pb.reference : pb.encoded;
  for (std::size_t j = j0; j < j1; ++j) {
    const auto src = golden.row(j);
    const auto dst = pb.checksum.row(j / pb.checksum_stripe);
    for (std::size_t p = p0; p < p1; ++p) dst[p] += src[p];
  }
}

}  // namespace

void stage_normalized_bt(const Matrix& src, GrowAxis axis, double scale, Matrix& out) {
  if (axis == GrowAxis::kCols) {
    out.resize(src.rows(), src.cols());
    for (std::size_t i = 0; i < src.size(); ++i) out.data()[i] = src.data()[i] / scale;
    return;
  }
  // Transpose in square blocks so both the rows read and the rows written
  // stay cache-resident; every element still takes the same one division.
  constexpr std::size_t kBlock = 32;
  out.resize(src.cols(), src.rows());
  for (std::size_t r0 = 0; r0 < src.rows(); r0 += kBlock) {
    const std::size_t r1 = std::min(r0 + kBlock, src.rows());
    for (std::size_t c0 = 0; c0 < src.cols(); c0 += kBlock) {
      const std::size_t c1 = std::min(c0 + kBlock, src.cols());
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = c0; c < c1; ++c) out(c, r) = src(r, c) / scale;
      }
    }
  }
}

PreparedOperand prepare_operand(const Matrix& src, GrowAxis axis, const OperandSpec& spec,
                                const RowEncoder& encode, ThreadPool& pool, Matrix& stage) {
  PreparedOperand pb;
  pb.rows = axis == GrowAxis::kCols ? src.cols() : src.rows();
  pb.cols = axis == GrowAxis::kCols ? src.rows() : src.cols();
  pb.abs_max = raw_abs_max(src.data());
  pb.scale = pb.abs_max > 0.0 ? pb.abs_max : 1.0;  // == converters::max_abs_scale
  pb.epoch = spec.epoch;
  pb.channels = spec.channels;

  // Amortized encoding: every B column is encoded exactly once, the
  // software mirror of the hardware broadcasting one modulated operand
  // across a whole tile.
  stage_normalized_bt(src, axis, pb.scale, stage);
  pb.encoded = Matrix(pb.cols, pb.rows);
  if (spec.reference) pb.reference = Matrix(pb.cols, pb.rows);
  encode_rows(pb, spec, stage, 0, 0, encode, pool);

  // ABFT column checksums (abft.hpp): one digital sum of the golden
  // columns per array-width stripe, cached with the operand so guarded
  // runs pay the O(n·k) sums once per prepare, not once per product.
  if (spec.checksum_stripe > 0) {
    pb.checksum_stripe = spec.checksum_stripe;
    pb.checksum = Matrix(stripe_count(pb.cols, pb.checksum_stripe), pb.rows);
    fold_stripes(pb, 0, pb.cols, 0, pb.rows);
  }
  return pb;
}

bool append_operand(PreparedOperand& pb, const Matrix& src, GrowAxis axis,
                    const OperandSpec& spec, const RowEncoder& encode, ThreadPool& pool,
                    Matrix& stage) {
  const bool cols_axis = axis == GrowAxis::kCols;
  // Refuse anything the bit-identity proof does not cover.  Stamps: the
  // encoder state and lane packing the operand was encoded under.
  if (pb.epoch != spec.epoch || pb.channels != spec.channels) return false;
  // Shape: the source's columns are the fixed dimension, its rows the
  // growing one, and it may not shrink.
  const std::size_t fixed = cols_axis ? pb.rows : pb.cols;
  const std::size_t old_len = cols_axis ? pb.cols : pb.rows;
  const std::size_t new_len = src.rows();
  if (pb.rows == 0 || pb.cols == 0 || fixed != src.cols() || old_len > new_len) return false;
  // Physical layout: exactly `cols` rows; the output axis never pads, so
  // an operand whose reduction axis was ever padded cannot grow columns.
  const std::size_t cap = pb.encoded.cols();
  if (pb.encoded.rows() != pb.cols || cap < pb.rows || (cols_axis && cap != pb.rows)) {
    return false;
  }
  // Staging must mirror the spec: every staged part shaped like
  // `encoded`, every unstaged part empty.
  if (spec.reference ? (pb.reference.rows() != pb.cols || pb.reference.cols() != cap)
                     : pb.reference.size() > 0) {
    return false;
  }
  if (spec.checksum_stripe > 0
          ? (pb.checksum_stripe != spec.checksum_stripe ||
             pb.checksum.rows() != stripe_count(pb.cols, spec.checksum_stripe) ||
             pb.checksum.cols() != cap)
          : pb.checksum.size() > 0) {
    return false;
  }
  if (new_len == old_len) return true;
  // Scale stability: the fresh prepare of the full source folds the new
  // elements into the max — bit-identity needs them at or under the
  // recorded raw max.  NaN-safe: !(x <= y) also rejects NaN deltas.
  double dmax = 0.0;
  for (std::size_t r = old_len; r < new_len; ++r) dmax = std::max(dmax, raw_abs_max(src.row(r)));
  if (!(dmax <= pb.abs_max)) return false;

  const std::size_t delta = new_len - old_len;
  if (cols_axis) {
    // New output columns = new Bᵀ rows.  Matrix::resize preserves every
    // existing row when the column count is unchanged.
    const std::size_t k = pb.rows;
    stage.resize(delta, k);
    for (std::size_t r = 0; r < delta; ++r) {
      const auto from = src.row(old_len + r);
      const auto to = stage.row(r);
      for (std::size_t p = 0; p < k; ++p) to[p] = from[p] / pb.scale;
    }
    pb.encoded.resize(new_len, k);
    if (spec.reference) pb.reference.resize(new_len, k);
    encode_rows(pb, spec, stage, old_len, 0, encode, pool);
    if (spec.checksum_stripe > 0) {
      // Existing stripe rows already hold the ascending-j partial sums
      // through old_len; new stripe rows start from zero.
      const std::size_t old_stripes = pb.checksum.rows();
      pb.checksum.resize(stripe_count(new_len, pb.checksum_stripe), k);
      for (std::size_t s = old_stripes; s < pb.checksum.rows(); ++s) {
        const auto row = pb.checksum.row(s);
        std::fill(row.begin(), row.end(), 0.0);
      }
      fold_stripes(pb, old_len, new_len, 0, k);
    }
    pb.cols = new_len;
  } else {
    // New reduction positions = one new column of every Bᵀ row, written
    // into geometrically padded column capacity.
    const std::size_t n = pb.cols;
    grow_col_capacity(pb.encoded, new_len);
    if (spec.reference) grow_col_capacity(pb.reference, new_len);
    stage.resize(n, delta);
    for (std::size_t j = 0; j < n; ++j) {
      const auto to = stage.row(j);
      for (std::size_t p = 0; p < delta; ++p) to[p] = src(old_len + p, j) / pb.scale;
    }
    encode_rows(pb, spec, stage, 0, old_len, encode, pool);
    if (spec.checksum_stripe > 0) {
      // Fresh stripe positions start from exact zero (capacity padding is
      // unspecified), then accumulate in ascending j.
      grow_col_capacity(pb.checksum, new_len);
      for (std::size_t s = 0; s < pb.checksum.rows(); ++s) {
        const auto row = pb.checksum.row(s);
        std::fill(row.begin() + static_cast<std::ptrdiff_t>(old_len),
                  row.begin() + static_cast<std::ptrdiff_t>(new_len), 0.0);
      }
      fold_stripes(pb, 0, n, old_len, new_len);
    }
    pb.rows = new_len;
  }
  return true;
}

OperandSpec PhotonicGemm::operand_spec(std::uint64_t epoch) const {
  // The column-only guard never runs the row lanes the stripes feed.
  return OperandSpec{.epoch = epoch,
                     .channels = {},
                     .checksum_stripe =
                         cfg_.guard.enabled && !cfg_.guard.column_only ? cfg_.array_cols : 0,
                     .reference = false};
}

RowEncoder PhotonicGemm::lut_encoder() const {
  // The LUT is position-independent (p0 unused) and the healthy path
  // stages no golden reference.
  return [this](std::span<const double> norm, std::size_t, std::span<double> encoded,
                std::span<double>) { engine_.encode_span(norm, encoded); };
}

bool PhotonicGemm::reads_energy() const {
  return cfg_.dot.use_full_optics && cfg_.path == ExecutionPath::kKernelSimd;
}

void PhotonicGemm::sum_energy(const PreparedOperand& b, std::size_t j0,
                              std::vector<double>& out) const {
  // The tile's own Σy² rule, bounded by the logical reduction length:
  // capacity padding is never summed.  Columns are independent, so the
  // sweep is parallel without moving a bit.
  out.resize(b.cols);
  pool_->parallel_for(b.cols - j0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t j = j0 + begin; j < j0 + end; ++j) {
      out[j] = kernel_.energy(b.encoded.row(j).first(b.rows));
    }
  });
}

PreparedOperand PhotonicGemm::prepare(const Matrix& src, GrowAxis axis,
                                      std::uint64_t epoch) const {
  PreparedOperand pb =
      prepare_operand(src, axis, operand_spec(epoch), lut_encoder(), *pool_, norm_scratch_);
  if (reads_energy()) stage_energy(pb, 0);
  return pb;
}

bool PhotonicGemm::append(PreparedOperand& pb, const Matrix& src, GrowAxis axis,
                          std::uint64_t epoch) const {
  // Only sums at the current length can be extended.
  const bool extend = pb.has_energy();
  const std::size_t old_rows = pb.rows;
  const std::size_t old_cols = pb.cols;
  if (!append_operand(pb, src, axis, operand_spec(epoch), lut_encoder(), *pool_,
                      norm_scratch_)) {
    return false;
  }
  if (!reads_energy() || (pb.rows == old_rows && pb.cols == old_cols)) return true;
  // Output axis: sum only the new columns.  Reduction axis: continue each
  // column's sum over its new rows.
  if (axis == GrowAxis::kCols) {
    stage_energy(pb, extend ? old_cols : 0);
  } else {
    resume_energy(pb, old_rows, extend);
  }
  return true;
}

void PhotonicGemm::stage_energy(PreparedOperand& pb, std::size_t j0) const {
  sum_energy(pb, j0, pb.energy);
  pb.energy_rows = pb.rows;
  pb.energy_acc = {};
}

void PhotonicGemm::resume_energy(PreparedOperand& pb, std::size_t old_rows, bool extend) const {
  const bool staged = pb.energy_acc.size() == pb.cols * simd::kDotSelfState;
  const std::size_t from = extend && staged ? old_rows : 0;
  if (from == 0) pb.energy_acc.assign(pb.cols * simd::kDotSelfState, 0.0);
  pb.energy.resize(pb.cols);
  pool_->parallel_for(pb.cols, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t j = begin; j < end; ++j) {
      pb.energy[j] = kernel_.energy(
          pb.encoded.row(j).first(pb.rows), from,
          std::span<double>(pb.energy_acc).subspan(j * simd::kDotSelfState, simd::kDotSelfState));
    }
  });
  pb.energy_rows = pb.rows;
}

PreparedOperand PhotonicGemm::prepare_b(const Matrix& b, std::uint64_t epoch) const {
  return prepare(b, GrowAxis::kRows, epoch);
}

PreparedOperand PhotonicGemm::prepare_bt(const Matrix& bt, std::uint64_t epoch) const {
  return prepare(bt, GrowAxis::kCols, epoch);
}

bool PhotonicGemm::append_bt_rows(PreparedOperand& pb, const Matrix& bt,
                                  std::uint64_t epoch) const {
  return append(pb, bt, GrowAxis::kCols, epoch);
}

bool PhotonicGemm::append_b_rows(PreparedOperand& pb, const Matrix& b,
                                 std::uint64_t epoch) const {
  return append(pb, b, GrowAxis::kRows, epoch);
}

GemmResult PhotonicGemm::multiply_prepared(const Matrix& a, const PreparedOperand& b) const {
  PDAC_REQUIRE(a.cols() == b.rows, "PhotonicGemm: inner dimensions must agree");
  const bool guarded = cfg_.guard.enabled;
  if (guarded && !cfg_.guard.column_only) {
    PDAC_REQUIRE(b.checksum_stripe == cfg_.array_cols &&
                     b.checksum.rows() == (b.cols + cfg_.array_cols - 1) / cfg_.array_cols,
                 "PhotonicGemm: guarded execution needs an operand prepared under the same "
                 "guarded config (prepare_b with guard.enabled)");
  }
  const double a_scale = converters::max_abs_scale(a.data());
  const std::size_t k = a.cols();

  // A-side pipeline (normalize + encode), into per-engine scratch.  Under
  // the SIMD tier's quadratic form each row's energy Σx² is summed here,
  // once per product, instead of once per tile.
  const bool energies = reads_energy();
  norm_scratch_.resize(a.rows(), k);
  for (std::size_t i = 0; i < a.size(); ++i) norm_scratch_.data()[i] = a.data()[i] / a_scale;
  encode_scratch_.resize(a.rows(), k);
  const Matrix& ae = encode_scratch_;
  if (energies) xx_scratch_.resize(a.rows());
  pool_->parallel_for(a.rows(), [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t r = begin; r < end; ++r) {
      engine_.encode_span(norm_scratch_.row(r), encode_scratch_.row(r));
      if (energies) xx_scratch_[r] = kernel_.energy(encode_scratch_.row(r));
    }
  });
  // Column energies Σy²: the operand's own when staged at this length,
  // else summed here once for the whole product.
  std::span<const double> yy;
  if (energies) {
    if (b.has_energy()) {
      yy = b.energy;
    } else {
      sum_energy(b, 0, yy_scratch_);
      yy = yy_scratch_;
    }
  }

  GemmResult res;
  res.a_scale = a_scale;
  res.b_scale = b.scale;
  res.c = Matrix(a.rows(), b.cols);
  const double rescale = a_scale * b.scale;

  partition_tiles_into(a.rows(), b.cols, cfg_.array_rows, cfg_.array_cols, tile_scratch_);
  const std::vector<Tile>& tiles = tile_scratch_;
  const std::size_t chunks = (k + engine_.active_wavelengths() - 1) / engine_.active_wavelengths();

  // Per-tile counters land in tile-index slots and are folded in index
  // order after the join, so accounting is deterministic at any thread
  // count (the numerics are deterministic element-wise anyway).
  event_scratch_.assign(tiles.size(), EventCounter{});

  // Guard setup: the A row-stripe checksums (Σ_i x′_i per array_rows-high
  // stripe), once per product.  The engine's encoder is immutable, so
  // the A encodes double as their own golden reference.
  if (guarded) {
    stripe_sums(ae, cfg_.array_rows, xsum_scratch_);
    check_scratch_.assign(tiles.size(), TileCheck{});
  }

  const ExecutionPath path = cfg_.path;
  const std::size_t slot = cfg_.array_rows + cfg_.array_cols;
  for_each_tile(*pool_, tiles, [&](std::size_t t, std::size_t worker) {
    const Tile& tile = tiles[t];
    // Broadcast-amortization contract (see header): modulation, ADC and
    // cycle occupancy are tile-step quantities, not per-dot ones.  The
    // hardware modulates B columns per tile step even when the simulator
    // reuses a prepared encoding, so the charge is unconditional.  The
    // kernel tiers charge the closed form whole; the device graph below
    // keeps the detections, DDot ops and MACs of the dots it ran.
    EventCounter step = tile_step_events(tile.rows, tile.cols, k, engine_.active_wavelengths());
    // Raw (pre-rescale) tile sums for the checksum comparison, in the
    // worker's slot of the engine scratch; the unguarded path never
    // touches them.
    const std::span<double> sums = std::span<double>(sum_scratch_).subspan(worker * slot, slot);
    const std::span<double> rsum = sums.first(tile.rows);
    const std::span<double> csum = sums.subspan(tile.rows, tile.cols);
    if (guarded) {
      std::fill(rsum.begin(), rsum.end(), 0.0);
      std::fill(csum.begin(), csum.end(), 0.0);
    }
    if (path == ExecutionPath::kKernel) {
      // Fused flat-array kernel: the whole tile in one pass, raw sums
      // accumulated in the same order as the device-graph loop below.
      kernel_.run_tile(tile, ae, b.encoded, rescale, res.c, guarded ? rsum.data() : nullptr,
                       guarded ? csum.data() : nullptr);
    } else if (path == ExecutionPath::kKernelSimd) {
      // SIMD fast tier: tolerance-banded vs the scalar kernel, event
      // charges identical; the guard below runs on it unchanged.
      kernel_.run_tile_fast(tile, ae, b.encoded, xx_scratch_, yy, rescale, res.c,
                            guarded ? rsum.data() : nullptr, guarded ? csum.data() : nullptr);
    } else {
      const Ddot& ddot = worker_ddots_[worker];
      DdotScratch& scratch = worker_scratch_[worker];
      EventCounter reduction;
      for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
        for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
          // first(k) strips any column-capacity padding off the prepared
          // row — the device path takes equal-length spans.
          const double raw = engine_.dot_preencoded(ae.row(i), b.encoded.row(j).first(k),
                                                    &reduction, &ddot, &scratch);
          res.c(i, j) = raw * rescale;
          if (guarded) {
            rsum[i - tile.row0] += raw;
            csum[j - tile.col0] += raw;
          }
        }
      }
      step.detection_events = reduction.detection_events;
      step.ddot_ops = reduction.ddot_ops;
      step.macs = reduction.macs;
    }
    event_scratch_[t] = step;

    if (guarded) {
      // The single-error site is never applied here: a mismatch is how
      // callers learn a cached operand was corrupted.
      check_scratch_[t] = verify_tile(cfg_.guard, tile, t, rsum, csum, ae,
                                      xsum_scratch_.row(tile.row0 / cfg_.array_rows), b);
    }
  });

  for (const EventCounter& ev : event_scratch_) res.events += ev;

  if (guarded) {
    res.guard.enabled = true;
    res.guard.tiles_checked = tiles.size();
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const TileCheck& check = check_scratch_[t];
      if (!check.ok) {
        ++res.guard.mismatched_tiles;
        if (res.guard.first_mismatch == static_cast<std::size_t>(-1)) res.guard.first_mismatch = t;
      }
      // NaN-safe fold: a NaN tile residual must stick as the product's
      // worst, not vanish under an ordinary comparison.
      if (std::isnan(check.worst_residual) || check.worst_residual > res.guard.worst_residual) {
        res.guard.worst_residual = check.worst_residual;
        res.guard.worst_tolerance = check.tolerance;
      }
      if (check.drift_ratio > 0.0) ++res.guard.drift_tiles;
      res.guard.worst_drift_ratio = std::max(res.guard.worst_drift_ratio, check.drift_ratio);
      res.guard.checksum_events += checksum_lane_events(tiles[t].rows, tiles[t].cols, k, chunks,
                                                        cfg_.guard.column_only);
    }
  }
  return res;
}

EventCounter PhotonicGemm::count_events(std::size_t m, std::size_t k, std::size_t n) const {
  EventCounter ev;
  // Chunking follows the *usable* wavelengths: dead lanes fenced off by
  // the lane mask stretch every reduction over more cycles.
  for (std::size_t i0 = 0; i0 < m; i0 += cfg_.array_rows) {
    const std::size_t h = std::min(cfg_.array_rows, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += cfg_.array_cols) {
      ev += tile_step_events(h, std::min(cfg_.array_cols, n - j0), k,
                             engine_.active_wavelengths());
    }
  }
  return ev;
}

}  // namespace pdac::ptc
