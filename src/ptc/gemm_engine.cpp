#include "ptc/gemm_engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
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
/// std::max(m, |x|) never takes a NaN and |−0| is +0, so the maximum of
/// any subset is one exact value whatever the fold order: four
/// independent running maxima folded together give the serial fold's
/// double, and B and Bᵀ sources see the same value over the transposed
/// element order.
double raw_abs_max(std::span<const double> values) {
  double m[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= values.size(); i += 4) {
    for (std::size_t l = 0; l < 4; ++l) m[l] = std::max(m[l], std::abs(values[i + l]));
  }
  for (; i < values.size(); ++i) m[0] = std::max(m[0], std::abs(values[i]));
  return std::max(std::max(m[0], m[1]), std::max(m[2], m[3]));
}

std::size_t stripe_count(std::size_t n, std::size_t stripe) { return (n + stripe - 1) / stripe; }

/// Bᵀ rows per block of the one-pass build (rounded up to whole checksum
/// stripes): a block's normalized rows, encodes and stripe sums stay
/// cache-resident from one sweep to the next.
constexpr std::size_t kBlockRows = 32;
/// Stage row padding: unpadded rows of 512 or 768 doubles start on the
/// same L1 sets, so a block's rows would evict one another.
constexpr std::size_t kStagePad = 8;

/// Normalize Bᵀ rows [j0, j1) over reduction positions [0, k) of a
/// B-side source (B for kRows, Bᵀ for kCols) into rows of `out` from
/// `row0` on: out(row0 + j − j0, p) = Bᵀ(j, p) / scale, one division per
/// element.  `out` must already hold those rows and columns.  The one
/// normalizer of every prepare and append: none stages a whole
/// normalized Bᵀ.
void normalize_bt_rows(const Matrix& src, GrowAxis axis, double scale, std::size_t j0,
                       std::size_t j1, std::size_t k, Matrix& out, std::size_t row0) {
  PDAC_ASSERT(out.rows() >= row0 + (j1 - j0) && out.cols() >= k);
  const std::size_t stride = out.cols();
  double* const dst = out.data().data() + row0 * stride;
  if (axis == GrowAxis::kCols) {
    // The source is Bᵀ: each row is a contiguous run.
    for (std::size_t j = j0; j < j1; ++j) {
      const double* const from = src.row(j).data();
      double* const to = dst + (j - j0) * stride;
      for (std::size_t p = 0; p < k; ++p) to[p] = from[p] / scale;
    }
    return;
  }
  // The source is B: each position p is one run of B's row p, written
  // down a column of the (few, padded) output rows.
  for (std::size_t p = 0; p < k; ++p) {
    const double* const from = src.row(p).data();
    for (std::size_t j = j0; j < j1; ++j) dst[(j - j0) * stride + p] = from[j] / scale;
  }
}

/// Fold encoded columns [j0, j1) into their checksum stripes over every
/// reduction position.  Ascending j is the fresh prepare's order, so an
/// append continuing the running sums lands on the same doubles.
void fold_stripes(PreparedOperand& pb, std::size_t j0, std::size_t j1) {
  const std::size_t stripe = pb.checksum_stripe;
  for (std::size_t s = j0 / stripe; s * stripe < j1; ++s) {
    const std::size_t r0 = std::max(j0, s * stripe);
    const std::size_t r1 = std::min(j1, (s + 1) * stripe);
    simd::add_rows(pb.encoded.row(r0).data(), pb.encoded.cols(), r1 - r0, pb.rows,
                   pb.checksum.row(s).data());
  }
}

/// Quantize one normalized run into int16 codes through the span rule.
void quantize_codes(const converters::Quantizer& quant, std::span<const double> norm,
                    std::span<std::int16_t> codes) {
  quant.encode_each(norm, 1.0, [&](std::size_t i, std::int32_t code) {
    codes[i] = static_cast<std::int16_t>(code);
  });
}

/// The one blocked pass behind every prepare and output-axis append: Bᵀ
/// rows [j0, j1) over every reduction position, in blocks of whole
/// checksum stripes spread over `pool`.  Each block is normalized into
/// its worker's rows of `stage`, then encoded row by row (one `encode`
/// call per row) and folded into its stripes (ascending j) while still in
/// cache, or quantized row by row into a code operand.  Blocks start at
/// absolute stripe multiples, so no stripe straddles two workers, and
/// every element takes the same single division and encode, so the result
/// is bit for bit the same at any thread count.  `pb` must already hold
/// the rows and columns written, and its stripe rows the running sums the
/// fold continues.
void build_rows(PreparedOperand& pb, const Matrix& src, GrowAxis axis, const OperandSpec& spec,
                const RowEncoder& encode, ThreadPool& pool, Matrix& stage, std::size_t j0,
                std::size_t j1) {
  const std::size_t stripe = spec.checksum_stripe;
  const std::size_t block = stripe > 0 ? stripe_count(kBlockRows, stripe) * stripe : kBlockRows;
  const std::size_t first = j0 / block;
  const std::size_t blocks = j1 > j0 ? (j1 - 1) / block + 1 - first : 0;
  const std::size_t k = pb.rows;
  stage.resize(pool.size() * block, k + kStagePad);
  pool.parallel_for(blocks, [&](std::size_t begin, std::size_t end, std::size_t worker) {
    for (std::size_t b = first + begin; b < first + end; ++b) {
      const std::size_t lo = std::max(j0, b * block);
      const std::size_t hi = std::min(j1, (b + 1) * block);
      const std::size_t row0 = worker * block;
      normalize_bt_rows(src, axis, pb.scale, lo, hi, k, stage, row0);
      for (std::size_t j = lo; j < hi; ++j) {
        const std::span<const double> norm = stage.row(row0 + (j - lo)).first(k);
        if (spec.codes != nullptr) {
          quantize_codes(*spec.codes, norm, pb.codes.row(j).first(k));
        } else {
          encode(norm, pb.encoded.row(j).first(k));
        }
      }
      if (stripe > 0) fold_stripes(pb, lo, hi);
    }
  });
}

/// A reduction-axis append's new positions [p0, p1) of a B source.
/// Position p is B's row p, one contiguous run across every output
/// column, so it is normalized into its pool worker's stage row (as
/// normalize_bt_rows normalizes a Bᵀ row), encoded by one `encode` call or
/// quantized by one span call, written down column p of the operand and
/// folded into its stripes in ascending j, from the exact zero
/// append_operand writes there.  Positions touch disjoint elements and
/// every element takes the same single division and encode, so the
/// result is bit for bit the same as build_rows' at any pool width.
void build_positions(PreparedOperand& pb, const Matrix& src, const OperandSpec& spec,
                     const RowEncoder& encode, ThreadPool& pool, Matrix& stage, std::size_t p0,
                     std::size_t p1) {
  const std::size_t n = pb.cols;
  const std::size_t stripe = spec.checksum_stripe;
  // Per worker: the normalized run and its encodes.
  constexpr std::size_t kRowsPerWorker = 2;
  stage.resize(pool.size() * kRowsPerWorker, n + kStagePad);
  pool.parallel_for(p1 - p0, [&](std::size_t begin, std::size_t end, std::size_t worker) {
    const std::size_t row0 = worker * kRowsPerWorker;
    const std::span<const double> norm = stage.row(row0).first(n);
    const std::span<double> enc = stage.row(row0 + 1).first(n);
    for (std::size_t p = p0 + begin; p < p0 + end; ++p) {
      normalize_bt_rows(src, GrowAxis::kCols, pb.scale, p, p + 1, n, stage, row0);
      if (spec.codes != nullptr) {
        // Scattered down column p, one code per output column.
        spec.codes->encode_each(norm, 1.0, [&](std::size_t j, std::int32_t code) {
          pb.codes(j, p) = static_cast<std::int16_t>(code);
        });
        continue;
      }
      encode(norm, enc);
      for (std::size_t j = 0; j < n; ++j) pb.encoded(j, p) = enc[j];
      if (stripe > 0) {
        for (std::size_t j = 0; j < n; ++j) pb.checksum(j / stripe, p) += enc[j];
      }
    }
  });
}

}  // namespace

PreparedOperand prepare_operand(const Matrix& src, GrowAxis axis, const OperandSpec& spec,
                                const RowEncoder& encode, ThreadPool& pool, Matrix& stage) {
  PDAC_REQUIRE(spec.codes == nullptr || spec.checksum_stripe == 0,
               "prepare_operand: a code operand carries no checksum stripes");
  PreparedOperand pb;
  pb.rows = axis == GrowAxis::kCols ? src.cols() : src.rows();
  pb.cols = axis == GrowAxis::kCols ? src.rows() : src.cols();
  pb.abs_max = raw_abs_max(src.data());
  pb.scale = pb.abs_max > 0.0 ? pb.abs_max : 1.0;  // == converters::max_abs_scale

  // Amortized encoding: every B column is encoded (or quantized) exactly
  // once, the software mirror of the hardware broadcasting one modulated
  // operand across a whole tile.  The pass writes every element, so the
  // payload is sized, not zero-filled.
  if (spec.codes != nullptr) {
    pb.codes.resize(pb.cols, pb.rows);
  } else {
    pb.encoded.resize(pb.cols, pb.rows);
  }
  // ABFT column checksums (abft.hpp): one digital sum of the encoded
  // columns per array-width stripe, cached with the operand so guarded
  // runs pay the O(n·k) sums once per prepare, not once per product.
  // The sums start from exact zero.
  if (spec.checksum_stripe > 0) {
    pb.checksum_stripe = spec.checksum_stripe;
    pb.checksum = Matrix(stripe_count(pb.cols, pb.checksum_stripe), pb.rows);
  }
  build_rows(pb, src, axis, spec, encode, pool, stage, 0, pb.cols);
  return pb;
}

bool append_operand(PreparedOperand& pb, const Matrix& src, GrowAxis axis,
                    const OperandSpec& spec, const RowEncoder& encode, ThreadPool& pool,
                    Matrix& stage) {
  const bool cols_axis = axis == GrowAxis::kCols;
  // Refuse anything the bit-identity proof does not cover.  Shape: the
  // source's columns are the fixed dimension, its rows the growing one,
  // and it may not shrink.
  const std::size_t fixed = cols_axis ? pb.rows : pb.cols;
  const std::size_t old_len = cols_axis ? pb.cols : pb.rows;
  const std::size_t new_len = src.rows();
  if (pb.rows == 0 || pb.cols == 0 || fixed != src.cols() || old_len > new_len) return false;
  // Storage must mirror the spec: codes or amplitudes, never both.
  const bool codes = spec.codes != nullptr;
  if (codes ? pb.encoded.size() > 0 : pb.codes.size() > 0) return false;
  // Physical layout: exactly `cols` rows; the output axis never pads, so
  // an operand whose reduction axis was ever padded cannot grow columns.
  const std::size_t payload_rows = codes ? pb.codes.rows() : pb.encoded.rows();
  const std::size_t cap = codes ? pb.codes.cols() : pb.encoded.cols();
  if (payload_rows != pb.cols || cap < pb.rows || (cols_axis && cap != pb.rows)) return false;
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

  if (cols_axis) {
    // New output columns = new Bᵀ rows.  Matrix::resize preserves every
    // existing row when the column count is unchanged.
    const std::size_t k = pb.rows;
    if (codes) {
      pb.codes.resize(new_len, k);
    } else {
      pb.encoded.resize(new_len, k);
    }
    if (spec.checksum_stripe > 0) {
      // Existing stripe rows already hold the ascending-j partial sums
      // through old_len; new stripe rows start from zero.
      const std::size_t old_stripes = pb.checksum.rows();
      pb.checksum.resize(stripe_count(new_len, pb.checksum_stripe), k);
      for (std::size_t s = old_stripes; s < pb.checksum.rows(); ++s) {
        const auto row = pb.checksum.row(s);
        std::fill(row.begin(), row.end(), 0.0);
      }
    }
    build_rows(pb, src, axis, spec, encode, pool, stage, old_len, new_len);
    pb.cols = new_len;
  } else {
    // New reduction positions = one new column of every Bᵀ row, written
    // into geometrically padded column capacity.
    if (codes) {
      grow_col_capacity(pb.codes, new_len);
    } else {
      grow_col_capacity(pb.encoded, new_len);
    }
    if (spec.checksum_stripe > 0) {
      // Fresh stripe positions start from exact zero (capacity padding is
      // unspecified), then accumulate in ascending j.
      grow_col_capacity(pb.checksum, new_len);
      for (std::size_t s = 0; s < pb.checksum.rows(); ++s) {
        const auto row = pb.checksum.row(s);
        std::fill(row.begin() + static_cast<std::ptrdiff_t>(old_len),
                  row.begin() + static_cast<std::ptrdiff_t>(new_len), 0.0);
      }
    }
    build_positions(pb, src, spec, encode, pool, stage, old_len, new_len);
    pb.rows = new_len;
  }
  return true;
}

OperandSpec PhotonicGemm::operand_spec() const {
  return OperandSpec{.checksum_stripe = cfg_.guard.enabled ? cfg_.array_cols : 0};
}

RowEncoder PhotonicGemm::lut_encoder() const {
  return [this](std::span<const double> norm, std::span<double> encoded) {
    engine_.encode_span(norm, encoded);
  };
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

PreparedOperand PhotonicGemm::prepare(const Matrix& src, GrowAxis axis) const {
  PreparedOperand pb =
      prepare_operand(src, axis, operand_spec(), lut_encoder(), *pool_, norm_scratch_);
  if (reads_energy()) stage_energy(pb, 0);
  return pb;
}

bool PhotonicGemm::append(PreparedOperand& pb, const Matrix& src, GrowAxis axis) const {
  // Only sums at the current length can be extended.
  const bool extend = pb.has_energy();
  const std::size_t old_rows = pb.rows;
  const std::size_t old_cols = pb.cols;
  if (!append_operand(pb, src, axis, operand_spec(), lut_encoder(), *pool_, norm_scratch_)) {
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

PreparedOperand PhotonicGemm::prepare_b(const Matrix& b) const {
  return prepare(b, GrowAxis::kRows);
}

PreparedOperand PhotonicGemm::prepare_bt(const Matrix& bt) const {
  return prepare(bt, GrowAxis::kCols);
}

bool PhotonicGemm::append_bt_rows(PreparedOperand& pb, const Matrix& bt) const {
  return append(pb, bt, GrowAxis::kCols);
}

bool PhotonicGemm::append_b_rows(PreparedOperand& pb, const Matrix& b) const {
  return append(pb, b, GrowAxis::kRows);
}

GemmResult PhotonicGemm::multiply_prepared(const Matrix& a, const PreparedOperand& b) const {
  PDAC_REQUIRE(a.cols() == b.rows, "PhotonicGemm: inner dimensions must agree");
  const bool guarded = cfg_.guard.enabled;
  if (guarded) {
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
  // Every output is written by exactly one kernel call, so the output is
  // sized, not zero-filled.
  res.c.resize(a.rows(), b.cols);
  const double rescale = a_scale * b.scale;
  const ExecutionPath path = cfg_.path;

  // One kernel call over `span`, a tile or a row panel: the tier writes
  // its raw, post-ADC dots into res.c.  The device graph adds the
  // detections, DDot ops and MACs of the dots it ran to its worker's slot.
  reduction_scratch_.assign(pool_->size(), EventCounter{});
  const auto run = [&](const Tile& span, std::size_t worker) {
    if (path == ExecutionPath::kKernel) {
      // Fused flat-array kernel, bit-identical to the device-graph loop
      // below.
      kernel_.run_tile(span, ae, b.encoded, res.c);
    } else if (path == ExecutionPath::kKernelSimd) {
      // SIMD fast tier: tolerance-banded vs the scalar kernel, event
      // charges identical; the guard below runs on it unchanged.
      kernel_.run_tile_fast(span, ae, b.encoded, xx_scratch_, yy, res.c);
    } else {
      const Ddot& ddot = worker_ddots_[worker];
      DdotScratch& scratch = worker_scratch_[worker];
      // One readout converter per call, as the kernel tiers build theirs.
      const std::optional<converters::ElectricalAdc> adc = readout_adc(engine_.config(), k);
      for (std::size_t i = span.row0; i < span.row0 + span.rows; ++i) {
        for (std::size_t j = span.col0; j < span.col0 + span.cols; ++j) {
          // first(k) strips any column-capacity padding off the prepared
          // row — the device path takes equal-length spans.
          res.c(i, j) = engine_.dot_preencoded(ae.row(i), b.encoded.row(j).first(k),
                                               &reduction_scratch_[worker], &ddot, &scratch, &adc);
        }
      }
    }
  };

  if (!guarded) {
    // One kernel call per row panel: no verdict reads the tiles back, so
    // each array_rows stripe runs across the output width, cut into at
    // most one column chunk per worker, with one readout converter and
    // one quadratic form per call.
    partition_panels_into(a.rows(), b.cols, cfg_.array_rows, cfg_.array_cols, pool_->size(),
                          tile_scratch_);
    for_each_tile(*pool_, tile_scratch_, [&](std::size_t t, std::size_t worker) {
      run(tile_scratch_[t], worker);
      fold_tile(tile_scratch_[t], rescale, res.c);
    });
  } else {
    // Guarded: one tile per call, since each verdict re-reads its tile's
    // B rows while they are still in cache.  The A row-stripe checksums
    // (Σ_i x′_i per array_rows-high stripe) are summed once per product;
    // the engine's encoder is immutable, so the A encodes double as their
    // own golden reference.
    partition_tiles_into(a.rows(), b.cols, cfg_.array_rows, cfg_.array_cols, tile_scratch_);
    const std::vector<Tile>& tiles = tile_scratch_;
    stripe_sums(ae, cfg_.array_rows, xsum_scratch_);
    check_scratch_.assign(tiles.size(), TileCheck{});
    const std::size_t slot = cfg_.array_rows + cfg_.array_cols;
    for_each_tile(*pool_, tiles, [&](std::size_t t, std::size_t worker) {
      const Tile& tile = tiles[t];
      run(tile, worker);
      // Raw (pre-rescale) tile sums for the checksum comparison, in the
      // worker's slot of the engine scratch.
      const std::span<double> sums = std::span<double>(sum_scratch_).subspan(worker * slot, slot);
      const std::span<double> rsum = sums.first(tile.rows);
      const std::span<double> csum = sums.subspan(tile.rows, tile.cols);
      fold_tile(tile, rescale, res.c, rsum, csum);
      // The single-error site is never applied here: a mismatch is how
      // callers learn a cached operand was corrupted.
      check_scratch_[t] = verify_tile(cfg_.guard, tile, t, rsum, csum, ae,
                                      xsum_scratch_.row(tile.row0 / cfg_.array_rows), b.encoded,
                                      0, b.checksum.row(tile.col0 / cfg_.array_cols));
    });

    res.guard.enabled = true;
    res.guard.tiles_checked = tiles.size();
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const TileCheck& check = check_scratch_[t];
      if (!check.ok) {
        ++res.guard.mismatched_tiles;
        if (res.guard.first_mismatch == static_cast<std::size_t>(-1)) res.guard.first_mismatch = t;
      }
      fold_worst_residual(check.worst_residual, check.tolerance, res.guard.worst_residual,
                          res.guard.worst_tolerance);
      res.guard.tally_drift(check);
    }
    res.guard.checksum_events = checksum_product_events(
        a.rows(), k, b.cols, {cfg_.array_rows, cfg_.array_cols, cfg_.dot.wavelengths});
  }

  // Broadcast-amortization contract (see header): tiles stay the unit of
  // events whatever the unit of kernel calls, so the product is charged
  // the closed form over its tiling once.  The hardware modulates B
  // columns per tile step even when the simulator reuses a prepared
  // encoding, so the charge is unconditional.  The device graph keeps the
  // detections, DDot ops and MACs of the dots it ran.
  res.events = count_events(a.rows(), k, b.cols);
  if (path == ExecutionPath::kDeviceGraph) {
    EventCounter ran;
    for (const EventCounter& r : reduction_scratch_) ran += r;
    res.events.detection_events = ran.detection_events;
    res.events.ddot_ops = ran.ddot_ops;
    res.events.macs = ran.macs;
  }
  return res;
}

EventCounter PhotonicGemm::count_events(std::size_t m, std::size_t k, std::size_t n) const {
  // The executors' rule: B broadcast, one ADC sample per output.  Chunk
  // position i rides channel i, so reductions chunk over every
  // wavelength; degraded packing is the faults layer's lane executor.
  return product_events(m, k, n, {cfg_.array_rows, cfg_.array_cols, cfg_.dot.wavelengths},
                        Residency::kBroadcast, kSamplePerOutput);
}

}  // namespace pdac::ptc
