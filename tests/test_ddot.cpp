// Tests for the DDot unit: the optical dot product must satisfy paper
// Eq. 6 *exactly* — the datapath is passive linear optics.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "ptc/ddot.hpp"

namespace {

using namespace pdac;
using namespace pdac::ptc;

TEST(Ddot, SingleChannelProduct) {
  const Ddot ddot;
  const std::vector<double> x{0.8};
  const std::vector<double> y{-0.35};
  EXPECT_NEAR(ddot.compute(x, y).value(), 0.8 * -0.35, 1e-12);
}

TEST(Ddot, OrthogonalVectorsGiveZero) {
  const Ddot ddot;
  const std::vector<double> x{1.0, 0.0};
  const std::vector<double> y{0.0, 1.0};
  EXPECT_NEAR(ddot.compute(x, y).value(), 0.0, 1e-12);
}

TEST(Ddot, PhotocurrentsMatchEq6Terms) {
  // I⁺ = Σ(x+y)²/4 and I⁻ = Σ(x−y)²/4, individually.
  const Ddot ddot;
  const std::vector<double> x{0.5, -0.2};
  const std::vector<double> y{0.3, 0.7};
  const DdotReading r = ddot.compute(x, y);
  double ip = 0.0, im = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    ip += (x[i] + y[i]) * (x[i] + y[i]) / 4.0;
    im += (x[i] - y[i]) * (x[i] - y[i]) / 4.0;
  }
  EXPECT_NEAR(r.i_plus, ip, 1e-12);
  EXPECT_NEAR(r.i_minus, im, 1e-12);
}

TEST(Ddot, FullRangeOperands) {
  // Negative values ride on π-phase fields; the dot product still works.
  const Ddot ddot;
  const std::vector<double> x{-1.0, -0.5, 0.5, 1.0};
  const std::vector<double> y{1.0, -1.0, -0.5, 0.25};
  double expect = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) expect += x[i] * y[i];
  EXPECT_NEAR(ddot.compute(x, y).value(), expect, 1e-12);
}

TEST(Ddot, RejectsLengthMismatch) {
  const Ddot ddot;
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> y{1.0};
  EXPECT_THROW((void)ddot.compute(x, y), PreconditionError);
}

TEST(Ddot, RejectsRailChannelMismatch) {
  const Ddot ddot;
  photonics::DualRail rails{photonics::WdmField(2), photonics::WdmField(3)};
  EXPECT_THROW((void)ddot.compute(rails), PreconditionError);
}

TEST(Ddot, NoisyDetectionCentersOnTrueValue) {
  photonics::PhotodetectorConfig noisy;
  noisy.noise.enabled = true;
  noisy.noise.thermal_noise_std = 0.01;
  const Ddot ddot(photonics::PhaseShifter::minus_90(),
                  photonics::DirectionalCoupler::fifty_fifty(),
                  photonics::Photodetector(noisy), photonics::Photodetector(noisy));
  photonics::DualRail rails{photonics::WdmField(1), photonics::WdmField(1)};
  rails.upper.set_amplitude(0, photonics::Complex{0.6, 0.0});
  rails.lower.set_amplitude(0, photonics::Complex{0.4, 0.0});
  Rng rng(3);
  double sum = 0.0;
  const int trials = 20'000;
  DdotScratch scratch;
  for (int i = 0; i < trials; ++i) sum += ddot.compute_noisy(rails, rng, scratch).value();
  EXPECT_NEAR(sum / trials, 0.24, 0.001);
}

TEST(Ddot, ImbalancedCouplerDegradesAccuracy) {
  // A non-50:50 coupler breaks the (x+y)/(x−y) split; the error must be
  // visible (robustness-analysis hook).
  const Ddot bad(photonics::PhaseShifter::minus_90(), photonics::DirectionalCoupler(0.6),
                 photonics::Photodetector(), photonics::Photodetector());
  const std::vector<double> x{0.9};
  const std::vector<double> y{0.8};
  EXPECT_GT(std::abs(bad.compute(x, y).value() - 0.72), 0.05);
}

// --- property: Eq. 6 holds for random vectors of any width -----------------
class DdotExactness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DdotExactness, MatchesAlgebraicDotProduct) {
  const Ddot ddot;
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = rng.uniform_vector(GetParam(), -1.0, 1.0);
    const auto y = rng.uniform_vector(GetParam(), -1.0, 1.0);
    double expect = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) expect += x[i] * y[i];
    EXPECT_NEAR(ddot.compute(x, y).value(), expect, 1e-10 * static_cast<double>(x.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(VectorWidths, DdotExactness,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256));

}  // namespace
