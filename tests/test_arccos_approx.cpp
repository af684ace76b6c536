// Unit and property tests for the arccos approximation (paper §III-C):
// the mathematical core of the P-DAC.
#include <gtest/gtest.h>

#include <cmath>

#include "common/math_utils.hpp"
#include "common/require.hpp"
#include "core/arccos_approx.hpp"

namespace {

using namespace pdac;
using namespace pdac::core;

TEST(ArccosTaylor1, MatchesEq15) {
  EXPECT_DOUBLE_EQ(arccos_taylor1(0.0), math::kPi / 2.0);
  EXPECT_DOUBLE_EQ(arccos_taylor1(1.0), math::kPi / 2.0 - 1.0);
  EXPECT_DOUBLE_EQ(arccos_taylor1(-0.5), math::kPi / 2.0 + 0.5);
}

TEST(ArccosTaylor1, WorstErrorIsPaper15Point9Percent) {
  const double err = std::abs(std::cos(arccos_taylor1(1.0)) - 1.0);
  EXPECT_NEAR(err, 0.159, 0.002);
  const double err_neg = std::abs(std::cos(arccos_taylor1(-1.0)) - (-1.0));
  EXPECT_NEAR(err_neg, 0.159, 0.002);
}

TEST(PiecewiseLinear, PaperCoefficients) {
  // Eq. 18: f(r) = −3.0651 r + 0.07648 on the negative outer segment and
  // f(r) = −3.0651 (r − 1) on the positive outer segment.
  const auto p = PiecewiseLinearArccos::paper();
  const auto& neg = p.piece(Segment::kNegativeOuter);
  const auto& pos = p.piece(Segment::kPositiveOuter);
  EXPECT_NEAR(neg.slope, -3.0651, 2e-4);
  EXPECT_NEAR(neg.intercept, 0.07648, 2e-4);
  EXPECT_NEAR(pos.slope, -3.0651, 2e-4);
  EXPECT_NEAR(pos.intercept, 3.0651, 2e-4);
}

TEST(PiecewiseLinear, MiddleSegmentIsTaylor) {
  const auto p = PiecewiseLinearArccos::paper();
  for (double r : {-0.7, -0.3, 0.0, 0.5, 0.72}) {
    EXPECT_DOUBLE_EQ(p.eval(r), arccos_taylor1(r)) << "r=" << r;
  }
}

TEST(PiecewiseLinear, SegmentSelection) {
  const auto p = PiecewiseLinearArccos::paper();
  EXPECT_EQ(p.segment(-0.9), Segment::kNegativeOuter);
  EXPECT_EQ(p.segment(-0.7236), Segment::kMiddle);  // boundary belongs to middle
  EXPECT_EQ(p.segment(0.0), Segment::kMiddle);
  EXPECT_EQ(p.segment(0.7236), Segment::kMiddle);
  EXPECT_EQ(p.segment(0.8), Segment::kPositiveOuter);
}

TEST(PiecewiseLinear, ExactAtDomainEndpoints) {
  // f(1) = arccos(1) = 0 and f(−1) = arccos(−1) = π by construction.
  const auto p = PiecewiseLinearArccos::paper();
  EXPECT_NEAR(p.eval(1.0), 0.0, 1e-12);
  EXPECT_NEAR(p.eval(-1.0), math::kPi, 2e-4);  // π − 3.0651 + 3.0651·0 offset rounding
  EXPECT_NEAR(p.decoded(1.0), 1.0, 1e-12);
  EXPECT_NEAR(p.decoded(-1.0), -1.0, 1e-6);
}

TEST(PiecewiseLinear, ContinuousAtBreakpoints) {
  const auto p = PiecewiseLinearArccos::paper();
  const double k = p.breakpoint();
  const double eps = 1e-9;
  EXPECT_NEAR(p.eval(k - eps), p.eval(k + eps), 1e-6);
  EXPECT_NEAR(p.eval(-k - eps), p.eval(-k + eps), 1e-6);
}

TEST(PiecewiseLinear, OddSymmetryOfDecodedValue) {
  // arccos symmetry f(−r) = π − f(r) ⇒ cos(f(−r)) = −cos(f(r)).
  const auto p = PiecewiseLinearArccos::paper();
  for (double r : {0.1, 0.4, 0.7236, 0.9, 1.0}) {
    EXPECT_NEAR(p.decoded(-r), -p.decoded(r), 1e-4) << "r=" << r;
  }
}

TEST(PiecewiseLinear, MaxDecodeErrorIs8Point5Percent) {
  const auto p = PiecewiseLinearArccos::paper();
  EXPECT_NEAR(p.max_decode_error(), 0.085, 0.001);
}

TEST(PiecewiseLinear, WorstErrorOccursAtBreakpoint) {
  const auto p = PiecewiseLinearArccos::paper();
  const double at_k = p.decode_error(p.breakpoint());
  EXPECT_NEAR(at_k, p.max_decode_error(), 1e-4);
  EXPECT_NEAR(p.decode_error(-p.breakpoint()), at_k, 1e-9);
}

TEST(PiecewiseLinear, ErrorBoundHoldsEverywhere) {
  const auto p = PiecewiseLinearArccos::paper();
  for (double r : math::linspace(-1.0, 1.0, 2001)) {
    if (std::abs(r) < 1e-3) continue;  // relative metric undefined at 0
    EXPECT_LE(p.decode_error(r), 0.0851) << "r=" << r;
  }
}

TEST(PiecewiseLinear, EvalClampsOutOfDomain) {
  const auto p = PiecewiseLinearArccos::paper();
  EXPECT_DOUBLE_EQ(p.eval(1.5), p.eval(1.0));
  EXPECT_DOUBLE_EQ(p.eval(-3.0), p.eval(-1.0));
}

TEST(PiecewiseLinear, IntegratedErrorMatchesEq17AtPaperK) {
  // The objective value at k = 0.7236 (≈0.0318, our quadrature).
  const auto p = PiecewiseLinearArccos::paper();
  EXPECT_NEAR(p.integrated_error(), 0.0318, 0.0005);
}

TEST(PiecewiseLinear, RejectsDegenerateBreakpoints) {
  EXPECT_THROW(PiecewiseLinearArccos::with_breakpoint(0.0), PreconditionError);
  EXPECT_THROW(PiecewiseLinearArccos::with_breakpoint(1.0), PreconditionError);
  EXPECT_THROW(PiecewiseLinearArccos::with_breakpoint(-0.5), PreconditionError);
}

TEST(PiecewiseLinear, SegmentToString) {
  EXPECT_EQ(to_string(Segment::kMiddle), "middle");
  EXPECT_EQ(to_string(Segment::kNegativeOuter), "negative-outer");
  EXPECT_EQ(to_string(Segment::kPositiveOuter), "positive-outer");
}

// --- property: decode error bounded for any reasonable breakpoint -----------
class BreakpointFamily : public ::testing::TestWithParam<double> {};

TEST_P(BreakpointFamily, DecodedStaysInUnitInterval) {
  const auto p = PiecewiseLinearArccos::with_breakpoint(GetParam());
  for (double r : math::linspace(-1.0, 1.0, 501)) {
    EXPECT_GE(p.decoded(r), -1.0 - 1e-12);
    EXPECT_LE(p.decoded(r), 1.0 + 1e-12);
  }
}

TEST_P(BreakpointFamily, PhaseStaysInZeroPi) {
  const auto p = PiecewiseLinearArccos::with_breakpoint(GetParam());
  for (double r : math::linspace(-1.0, 1.0, 501)) {
    EXPECT_GE(p.eval(r), -1e-9);
    EXPECT_LE(p.eval(r), math::kPi + 0.25);  // Taylor middle may exceed π slightly
  }
}

TEST_P(BreakpointFamily, DecodedIsMonotoneNonDecreasing) {
  const auto p = PiecewiseLinearArccos::with_breakpoint(GetParam());
  double prev = p.decoded(-1.0);
  for (double r : math::linspace(-1.0, 1.0, 501)) {
    const double v = p.decoded(r);
    EXPECT_GE(v, prev - 1e-9) << "r=" << r;
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Breakpoints, BreakpointFamily,
                         ::testing::Values(0.3, 0.5, 0.6, 0.7236, 0.8, 0.9));

}  // namespace
