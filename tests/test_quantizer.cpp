// Unit and property tests for the symmetric fixed-point quantizer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "converters/quantizer.hpp"
#include "span_rule_cases.hpp"

namespace {

using namespace pdac;
using namespace pdac::converters;

TEST(Quantizer, PaperExample0x40) {
  // Paper §III-C: "0x40 in an 8-bit system … 0x40/(2⁷−1) = 0.5".
  const Quantizer q(8);
  EXPECT_NEAR(q.decode(0x40), 64.0 / 127.0, 1e-15);
  EXPECT_NEAR(q.decode(0x40), 0.5, 0.004);
}

TEST(Quantizer, MaxCodeMatchesBitWidth) {
  EXPECT_EQ(Quantizer(4).max_code(), 7);
  EXPECT_EQ(Quantizer(8).max_code(), 127);
  EXPECT_EQ(Quantizer(12).max_code(), 2047);
}

TEST(Quantizer, EncodeEndpoints) {
  const Quantizer q(8);
  EXPECT_EQ(q.encode(1.0), 127);
  EXPECT_EQ(q.encode(-1.0), -127);
  EXPECT_EQ(q.encode(0.0), 0);
}

TEST(Quantizer, EncodeSaturatesOutOfRange) {
  const Quantizer q(8);
  EXPECT_EQ(q.encode(2.5), 127);
  EXPECT_EQ(q.encode(-7.0), -127);
}

TEST(Quantizer, EncodeRoundsToNearest) {
  const Quantizer q(4);  // max code 7, step 1/7
  EXPECT_EQ(q.encode(0.49 / 7.0), 0);
  EXPECT_EQ(q.encode(0.51 / 7.0), 1);
}

TEST(Quantizer, DecodeRejectsOutOfRangeCode) {
  const Quantizer q(4);
  EXPECT_THROW((void)q.decode(8), PreconditionError);
  EXPECT_THROW((void)q.decode(-8), PreconditionError);
}

TEST(Quantizer, RejectsBadBitWidths) {
  EXPECT_THROW((void)Quantizer(1), PreconditionError);
  EXPECT_THROW((void)Quantizer(17), PreconditionError);
}

TEST(Quantizer, QuantizeIsIdempotent) {
  const Quantizer q(6);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const double r = rng.uniform(-1.0, 1.0);
    const double once = q.quantize(r);
    EXPECT_DOUBLE_EQ(q.quantize(once), once);
  }
}

TEST(Quantizer, SymmetricAroundZero) {
  const Quantizer q(8);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double r = rng.uniform(0.0, 1.0);
    EXPECT_DOUBLE_EQ(q.quantize(-r), -q.quantize(r));
  }
}

TEST(MaxAbsScale, FindsLargestMagnitude) {
  const std::vector<double> v{0.1, -2.5, 1.0};
  EXPECT_DOUBLE_EQ(max_abs_scale(v), 2.5);
}

TEST(MaxAbsScale, AllZeroFallsBackToOne) {
  const std::vector<double> v{0.0, 0.0};
  EXPECT_DOUBLE_EQ(max_abs_scale(v), 1.0);
  EXPECT_DOUBLE_EQ(max_abs_scale({}), 1.0);
}

TEST(QuantizeVector, RoundTripWithinHalfStep) {
  Rng rng(6);
  const Quantizer q(8);
  const auto values = rng.uniform_vector(100, -3.0, 3.0);
  double scale = 0.0;
  const auto codes = quantize_vector(values, q, &scale);
  const auto back = dequantize_vector(codes, q, scale);
  const double half_step = 0.5 * scale / static_cast<double>(q.max_code());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(back[i], values[i], half_step + 1e-12) << "i=" << i;
  }
}

TEST(Quantizer, NegativeZeroEncodesToZero) {
  const Quantizer q(8);
  EXPECT_EQ(q.encode(-0.0), 0);
  EXPECT_EQ(q.quantize(-0.0), 0.0);
  EXPECT_EQ(q.decode(0), 0.0);
}

// --- the span rule -----------------------------------------------------------

/// First index where codes[i] != want(off + i), or codes.size() when none.
template <typename Want>
std::size_t first_mismatch(const std::vector<std::int32_t>& codes, std::size_t off,
                           const Want& want) {
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] != want(off + i)) return i;
  }
  return codes.size();
}

TEST(Quantizer, SpanEncodeEqualsScalarCodeByCode) {
  // The span encode (simd::quantize: AVX2 when the CPU has it) must equal
  // encode(r / divisor) code by code at every bit width and divisor: on
  // every rounding tie and its neighbours, on ±0, the extremes, ±Inf and
  // NaN, whole and in spans that end at every tail position.
  Rng rng(91);
  for (int bits = 2; bits <= 16; ++bits) {
    const Quantizer q(bits);
    for (const double d : {1.0, 0.7, 3.0, 768.0}) {
      SCOPED_TRACE(testing::Message() << "bits " << bits << ", divisor " << d);
      const std::vector<double> in = span_rule::inputs(q.max_code(), d, rng);
      const auto want = [&](std::size_t i) { return q.encode(in[i] / d); };
      std::vector<std::int32_t> codes(in.size());
      q.encode(in, codes, d);
      std::size_t bad = first_mismatch(codes, 0, want);
      ASSERT_EQ(bad, codes.size()) << "input " << in[bad] << " gave " << codes[bad];
      for (std::size_t off = 0; off < 4; ++off) {
        for (const std::size_t len : span_rule::lengths()) {
          std::vector<std::int32_t> part(len, -1);
          q.encode(std::span<const double>(in).subspan(off, len), part, d);
          bad = first_mismatch(part, off, want);
          ASSERT_EQ(bad, part.size()) << "offset " << off << ", length " << len << ", input "
                                      << in[off + bad];
        }
      }
    }
  }
  // A one-bit grid ({0}) is below the Quantizer's range; the routine still
  // follows the reference line there.
  const std::vector<double> in = span_rule::inputs(1, 3.0, rng);
  std::vector<std::int32_t> codes(in.size(), -1);
  simd::quantize(in.data(), in.size(), 3.0, 0, codes.data());
  EXPECT_EQ(first_mismatch(codes, 0,
                           [&](std::size_t i) { return simd::quantize_code(in[i] / 3.0, 0); }),
            codes.size());
}

TEST(Quantizer, NonFiniteInputsKeepTheirCodesInSpans) {
  // The reference's non-finite behavior, pinned: NaN → 0 (lround's
  // LONG_MIN narrowed), ±Inf → ±max_code, −0 → 0.
  const Quantizer q(8);
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(q.encode(nan), 0);
  EXPECT_EQ(q.encode(inf), 127);
  EXPECT_EQ(q.encode(-inf), -127);
  const std::vector<double> in = {nan, inf, -inf, -0.0, nan, 0.5, -0.5, nan};
  std::vector<std::int32_t> codes(in.size());
  q.encode(in, codes);
  EXPECT_EQ(codes, (std::vector<std::int32_t>{0, 127, -127, 0, 0, 64, -64, 0}));
  EXPECT_THROW(q.encode(in, std::span<std::int32_t>(codes).first(3)), PreconditionError);
}

// --- property sweep over bit widths -----------------------------------------
class QuantizerRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerRoundTrip, EveryCodeSurvivesDecodeEncode) {
  const Quantizer q(GetParam());
  for (std::int32_t c = -q.max_code(); c <= q.max_code(); ++c) {
    EXPECT_EQ(q.encode(q.decode(c)), c) << "code " << c;
  }
}

TEST_P(QuantizerRoundTrip, SymmetricSaturationAtMaxCode) {
  const Quantizer q(GetParam());
  // ±(2^(b−1)−1): symmetric two's-complement-style range, no −2^(b−1).
  EXPECT_EQ(q.max_code(), (1 << (GetParam() - 1)) - 1);
  EXPECT_EQ(q.encode(1.0), q.max_code());
  EXPECT_EQ(q.encode(-1.0), -q.max_code());
  EXPECT_EQ(q.encode(1e9), q.max_code());
  EXPECT_EQ(q.encode(-1e9), -q.max_code());
  // One representable step inside the clamp boundary still rounds up to
  // the saturated code.
  EXPECT_EQ(q.encode(1.0 - 0.25 * q.step()), q.max_code());
  EXPECT_EQ(q.encode(-1.0 + 0.25 * q.step()), -q.max_code());
}

TEST_P(QuantizerRoundTrip, QuantizationErrorBoundedByHalfStep) {
  const Quantizer q(GetParam());
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    const double r = rng.uniform(-1.0, 1.0);
    EXPECT_LE(std::abs(q.quantize(r) - r), 0.5 * q.step() + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(BitWidths, QuantizerRoundTrip,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16));

}  // namespace
