// ptc::prepare_operand and append_operand build every operand in one
// blocked pass (DESIGN.md §10): blocks of Bᵀ rows are normalized into
// per-worker scratch, then encoded and folded into their checksum stripes
// (amplitude operands) or quantized (code operands) while still in cache.
// These tests pin that pass, bit for bit, to an element-wise reference —
// the raw max-abs by a serial fold, every element divided once and
// encoded or quantized alone, every stripe summed in ascending column
// order — over both source orientations, shapes ragged against the block
// and the stripe, both payloads and more than one pool worker.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "converters/quantizer.hpp"
#include "core/modulator_driver.hpp"
#include "faults/fault_injector.hpp"
#include "faults/lane_bank.hpp"
#include "faults/lane_table.hpp"
#include "ptc/gemm_engine.hpp"

namespace {

using namespace pdac;
using namespace pdac::ptc;

/// A pure, nonlinear encoder, so a swapped element or a stripe folded
/// from the wrong values changes bits.
void value_encode(std::span<const double> norm, std::span<double> encoded) {
  for (std::size_t i = 0; i < norm.size(); ++i) {
    encoded[i] = norm[i] * (1.0 + 0.01 * norm[i]) + 1e-3;
  }
}

/// The quantizer code operands are stored through.
const converters::Quantizer kQuant(6);

/// prepare_operand, one element at a time.
PreparedOperand elementwise_prepare(const Matrix& src, GrowAxis axis, const OperandSpec& spec) {
  const bool cols_axis = axis == GrowAxis::kCols;
  PreparedOperand pb;
  pb.rows = cols_axis ? src.cols() : src.rows();
  pb.cols = cols_axis ? src.rows() : src.cols();
  for (const double v : src.data()) pb.abs_max = std::max(pb.abs_max, std::abs(v));
  pb.scale = pb.abs_max > 0.0 ? pb.abs_max : 1.0;
  if (spec.codes != nullptr) {
    pb.codes = CodeMatrix(pb.cols, pb.rows);
  } else {
    pb.encoded = Matrix(pb.cols, pb.rows);
  }
  for (std::size_t j = 0; j < pb.cols; ++j) {
    for (std::size_t p = 0; p < pb.rows; ++p) {
      const double norm = (cols_axis ? src(j, p) : src(p, j)) / pb.scale;
      if (spec.codes != nullptr) {
        pb.codes(j, p) = static_cast<std::int16_t>(spec.codes->encode(norm));
      } else {
        value_encode(std::span<const double>(&norm, 1), std::span<double>(&pb.encoded(j, p), 1));
      }
    }
  }
  if (spec.checksum_stripe > 0) {
    pb.checksum_stripe = spec.checksum_stripe;
    pb.checksum = Matrix((pb.cols + spec.checksum_stripe - 1) / spec.checksum_stripe, pb.rows);
    for (std::size_t j = 0; j < pb.cols; ++j) {
      for (std::size_t p = 0; p < pb.rows; ++p) {
        pb.checksum(j / spec.checksum_stripe, p) += pb.encoded(j, p);
      }
    }
  }
  return pb;
}

bool same_bits(double a, double b) { return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b); }

/// `got`'s logical rows × `want.cols()` positions equal `want` bit for
/// bit (`got` may carry padded column capacity).
void expect_same_bits(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_GE(got.cols(), want.cols()) << what;
  std::size_t differ = 0;
  for (std::size_t r = 0; r < want.rows(); ++r) {
    for (std::size_t p = 0; p < want.cols(); ++p) differ += !same_bits(got(r, p), want(r, p));
  }
  EXPECT_EQ(differ, 0u) << what;
}

/// `got`'s logical rows × `want.cols()` positions equal `want` code for
/// code.
void expect_same_codes(const CodeMatrix& got, const CodeMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_GE(got.cols(), want.cols());
  std::size_t differ = 0;
  for (std::size_t r = 0; r < want.rows(); ++r) {
    for (std::size_t p = 0; p < want.cols(); ++p) differ += got(r, p) != want(r, p);
  }
  EXPECT_EQ(differ, 0u) << "codes";
}

void expect_same_operand(const PreparedOperand& got, const PreparedOperand& want) {
  EXPECT_TRUE(same_bits(got.abs_max, want.abs_max));
  EXPECT_TRUE(same_bits(got.scale, want.scale));
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.cols, want.cols);
  EXPECT_EQ(got.checksum_stripe, want.checksum_stripe);
  expect_same_bits(got.encoded, want.encoded, "encoded");
  expect_same_codes(got.codes, want.codes);
  expect_same_bits(got.checksum, want.checksum, "checksum");
}

/// A B-side source in `axis` orientation holding Bᵀ of n × k Gaussians,
/// with Bᵀ row 0 the loudest so later rows can append under its scale.
Matrix bt_source(std::size_t n, std::size_t k, GrowAxis axis, Rng& rng) {
  Matrix bt = Matrix::random_gaussian(n, k, rng, 0.0, 0.3);
  for (std::size_t p = 0; p < k; ++p) bt(0, p) = p % 2 == 0 ? 2.0 : -2.0;
  return axis == GrowAxis::kCols ? bt : bt.transposed();
}

const char* axis_name(GrowAxis axis) { return axis == GrowAxis::kCols ? "cols" : "rows"; }

// Stripes of 3, 8 and 12 columns, every one of them ragged somewhere
// (fewer than 8 columns, or a short last stripe), over reduction lengths
// that leave 1, 4, 7 or 3 positions past the last 8-position block.
TEST(PrepareOperand, OnePassEqualsTheElementwiseReference) {
  const RowEncoder encode = value_encode;
  Rng rng(41);
  for (const std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    Matrix stage;
    for (const GrowAxis axis : {GrowAxis::kCols, GrowAxis::kRows}) {
      for (const std::size_t k : {1u, 7u, 20u, 131u}) {
        for (const std::size_t n : {1u, 8u, 33u, 100u}) {
          for (const std::size_t stripe : {0u, 3u, 8u, 12u}) {
            for (const bool codes : {false, true}) {
              if (codes && stripe > 0) continue;  // a code operand carries no stripes
              SCOPED_TRACE(testing::Message()
                           << "threads " << threads << " axis " << axis_name(axis) << " k " << k
                           << " n " << n << " stripe " << stripe << " codes " << codes);
              const Matrix src = bt_source(n, k, axis, rng);
              const OperandSpec spec{.checksum_stripe = stripe,
                                     .codes = codes ? &kQuant : nullptr};
              expect_same_operand(prepare_operand(src, axis, spec, encode, pool, stage),
                                  elementwise_prepare(src, axis, spec));
            }
          }
        }
      }
    }
  }
}

// Appends continue the build from a ragged start: new output columns
// through the same pass from any Bᵀ row, new reduction positions one
// encode or quantize call each from any position — appends of 1, 2, 9
// and more positions — continuing stripes an earlier build left
// part-summed.  The same growth then runs through the production
// payloads, each against a fresh prepare: PhotonicGemm's LUT (with its
// staged column energies) and the lane executor's codes, which
// faults::LaneEncoder then decodes — on a bank with a fenced channel, a
// golden snapshot left stale by a fault and a coefficient table brought
// up to it — into the bits encoding the normalized values gives.
TEST(PrepareOperand, AppendsEqualTheElementwiseReference) {
  const RowEncoder encode = value_encode;
  Rng rng(43);
  for (const std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    Matrix stage;
    for (const GrowAxis axis : {GrowAxis::kCols, GrowAxis::kRows}) {
      for (const std::size_t stripe : {0u, 8u, 12u}) {
        for (const bool codes : {false, true}) {
          if (codes && stripe > 0) continue;
          SCOPED_TRACE(testing::Message() << "threads " << threads << " axis " << axis_name(axis)
                                          << " stripe " << stripe << " codes " << codes);
          const OperandSpec spec{.checksum_stripe = stripe, .codes = codes ? &kQuant : nullptr};
          // The growing axis: Bᵀ rows (output columns) for kCols, source
          // rows (reduction positions) for kRows; the fixed one is 37 or
          // 70 wide.
          const std::size_t fixed = axis == GrowAxis::kCols ? 37 : 70;
          const Matrix full = axis == GrowAxis::kCols ? bt_source(100, fixed, axis, rng)
                                                      : bt_source(fixed, 100, axis, rng);
          const auto prefix = [&](std::size_t len) {
            Matrix m(len, full.cols());
            std::copy_n(full.data().begin(), m.size(), m.data().begin());
            return m;
          };
          PreparedOperand pb = prepare_operand(prefix(5), axis, spec, encode, pool, stage);
          for (const std::size_t len : {6u, 8u, 17u, 45u, 46u, 100u}) {
            ASSERT_TRUE(append_operand(pb, prefix(len), axis, spec, encode, pool, stage)) << len;
            expect_same_operand(pb, elementwise_prepare(prefix(len), axis, spec));
          }
        }
      }
    }
  }

  // The production payloads on reduction-axis appends of 1, 2 and 9
  // positions (5 → 6 → 8 → 17) onto a 70-column B.
  const Matrix full = bt_source(70, 17, GrowAxis::kRows, rng);
  const auto prefix = [&](std::size_t len) {
    Matrix m(len, full.cols());
    std::copy_n(full.data().begin(), m.size(), m.data().begin());
    return m;
  };
  const auto drv = core::make_pdac_driver(8);
  for (const std::size_t threads : {1u, 3u}) {
    for (const bool guarded : {false, true}) {
      SCOPED_TRACE(testing::Message() << "LUT encoder, threads " << threads << " guard "
                                      << guarded);
      GemmConfig cfg;
      cfg.threads = threads;
      cfg.guard.enabled = guarded;
      cfg.dot.use_full_optics = true;  // the SIMD tier then stages column energies
      cfg.path = ExecutionPath::kKernelSimd;
      const PhotonicGemm gemm(*drv, cfg);
      PreparedOperand pb = gemm.prepare_b(prefix(5));
      for (const std::size_t len : {6u, 8u, 17u}) {
        ASSERT_TRUE(gemm.append_b_rows(pb, prefix(len))) << len;
        const PreparedOperand fresh = gemm.prepare_b(prefix(len));
        expect_same_operand(pb, fresh);
        ASSERT_TRUE(pb.has_energy() && fresh.has_energy()) << len;
        for (std::size_t j = 0; j < pb.cols; ++j) {
          EXPECT_TRUE(same_bits(pb.energy[j], fresh.energy[j])) << len << " column " << j;
        }
      }
    }
  }

  faults::LaneBankConfig bank_cfg;
  bank_cfg.pdac.bits = 8;
  bank_cfg.wavelengths = 4;
  bank_cfg.variation.tia_gain_sigma = 0.01;
  bank_cfg.variation.bias_sigma = 0.002;
  bank_cfg.variation.seed = 19;
  faults::LaneBank bank(bank_cfg);
  faults::production_trim(bank);
  faults::LaneEncodeTable golden;
  golden.rebuild(bank);
  faults::LaneEncodeTable table;
  table.ensure(bank);
  // Stick a B-rail modulator and fence channel 1: both move the epoch, so
  // the golden snapshot and the table are stale; the table is then
  // refreshed, the only current-state source an encoder takes.
  faults::FaultSchedule sched;
  sched.cfg.lanes = bank.lanes();
  sched.cfg.bits = 8;
  sched.cfg.horizon_steps = 4;
  faults::FaultEvent stuck;
  stuck.step = 1;
  stuck.lane = bank.wavelengths() + 2;  // rail 1, channel 2
  stuck.kind = faults::FaultKind::kStuckMrr;
  stuck.magnitude = 0.4;
  sched.events.push_back(stuck);
  faults::FaultInjector injector(bank, sched);
  injector.advance_to(2);
  bank.lane(0, 1).fenced = true;
  bank.bump_epoch();
  ASSERT_FALSE(table.fresh(bank));
  ASSERT_FALSE(golden.fresh(bank));
  table.ensure(bank);
  const std::vector<std::size_t> channels = bank.surviving_channels();
  ASSERT_EQ(channels, (std::vector<std::size_t>{0, 2, 3}));
  const faults::LaneEncoder lanes(bank, channels, 1, table, &golden);
  for (const std::size_t threads : {1u, 3u}) {
    SCOPED_TRACE(testing::Message() << "lane codes, threads " << threads);
    ThreadPool pool(threads);
    Matrix stage;
    const OperandSpec spec{.codes = &bank.quantizer()};
    PreparedOperand pb = prepare_operand(prefix(5), GrowAxis::kRows, spec, {}, pool, stage);
    for (const std::size_t len : {6u, 8u, 17u}) {
      ASSERT_TRUE(append_operand(pb, prefix(len), GrowAxis::kRows, spec, {}, pool, stage))
          << len;
      expect_same_operand(pb, prepare_operand(prefix(len), GrowAxis::kRows, spec, {}, pool, stage));
    }
    // Each decoded column is the lane encode of its normalized values,
    // current and golden, and the stale golden really differs.
    std::vector<double> norm(pb.rows), cur(pb.rows), ref(pb.rows), want_cur(pb.rows),
        want_ref(pb.rows);
    std::size_t differ = 0;
    for (std::size_t j = 0; j < pb.cols; ++j) {
      for (std::size_t p = 0; p < pb.rows; ++p) norm[p] = full(p, j) / pb.scale;
      lanes(norm, want_cur, want_ref);
      lanes.decode(pb.codes.row(j).first(pb.rows), cur, ref);
      for (std::size_t p = 0; p < pb.rows; ++p) {
        ASSERT_TRUE(same_bits(cur[p], want_cur[p])) << j << "," << p;
        ASSERT_TRUE(same_bits(ref[p], want_ref[p])) << j << "," << p;
        differ += cur[p] != ref[p];
      }
    }
    EXPECT_GT(differ, 0u);
  }
}

// The raw max-abs folds four running maxima; std::max(m, |x|) never takes
// a NaN and |−0| is +0, so it must equal the serial fold's double for
// any placement of the extremes — every lane and every tail of lengths
// 0–9 — and through either source orientation.
TEST(PrepareOperand, AbsMaxEqualsTheSerialFoldAtEveryTail) {
  const RowEncoder encode = value_encode;
  ThreadPool pool(1);
  Matrix stage;
  const OperandSpec spec{};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto serial = [](const std::vector<double>& v) {
    double m = 0.0;
    for (const double x : v) m = std::max(m, std::abs(x));
    return m;
  };
  const auto check = [&](const std::vector<double>& v) {
    const double want = serial(v);
    for (const GrowAxis axis : {GrowAxis::kCols, GrowAxis::kRows}) {
      const Matrix src = axis == GrowAxis::kCols ? Matrix(1, v.size(), v) : Matrix(v.size(), 1, v);
      const PreparedOperand pb = prepare_operand(src, axis, spec, encode, pool, stage);
      EXPECT_TRUE(same_bits(pb.abs_max, want)) << "length " << v.size() << ": " << pb.abs_max;
      EXPECT_TRUE(same_bits(pb.scale, want > 0.0 ? want : 1.0)) << "length " << v.size();
    }
  };
  Rng rng(47);
  for (std::size_t len = 0; len <= 9; ++len) {
    SCOPED_TRACE(testing::Message() << "length " << len);
    std::vector<double> base(len);
    for (double& x : base) x = rng.uniform(-0.5, 0.5);
    check(base);
    check(std::vector<double>(len, 0.0));
    check(std::vector<double>(len, -0.0));
    for (std::size_t q = 0; q < len; ++q) {
      for (const double special : {nan, -0.0, inf, -inf, 3.0, -3.0}) {
        std::vector<double> v = base;
        v[q] = special;
        check(v);
      }
      // A NaN beside the largest magnitude, on either side.
      std::vector<double> v = base;
      v[q] = -3.0;
      v[(q + 1) % len] = nan;
      check(v);
    }
  }
  // All zeros, signed or not, record +0 and fall back to scale 1.
  const Matrix neg_zero(3, 5, -0.0);
  const PreparedOperand pz = prepare_operand(neg_zero, GrowAxis::kCols, spec, encode, pool, stage);
  EXPECT_FALSE(std::signbit(pz.abs_max));
  EXPECT_EQ(pz.abs_max, 0.0);
  EXPECT_EQ(pz.scale, 1.0);
}

}  // namespace
