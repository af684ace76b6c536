#include "core/arccos_approx.hpp"

#include <cmath>

#include "common/math_utils.hpp"
#include "common/require.hpp"

namespace pdac::core {

double arccos_taylor1(double r) { return math::kPi / 2.0 - r; }

PiecewiseLinearArccos::PiecewiseLinearArccos(double k) : k_(k) {
  PDAC_REQUIRE(k > 0.0 && k < 1.0, "PiecewiseLinearArccos: breakpoint in (0, 1)");
  const double half_pi = math::kPi / 2.0;

  // Middle segment: first-order Taylor (Eq. 15), valid on [−k, k].
  middle_ = LinearPiece{-k, k, -1.0, half_pi};

  // Positive outer segment (Eq. 16): the line through (k, π/2 − k) — the
  // Taylor value at the breakpoint — and (1, arccos(1)) = (1, 0):
  //   f(r) = (k − π/2)/(k − 1) · (1 − r)
  const double slope_mag = (k - half_pi) / (k - 1.0);  // ≈ 3.0651 at k = 0.7236
  positive_ = LinearPiece{k, 1.0, -slope_mag, slope_mag};

  // Negative outer segment via arccos symmetry f(−r) = π − f(r):
  //   f(r) = π − slope_mag·(1 + r) = −slope_mag·r + (π − slope_mag)
  negative_ = LinearPiece{-1.0, -k, -slope_mag, math::kPi - slope_mag};
}

PiecewiseLinearArccos PiecewiseLinearArccos::with_breakpoint(double k) {
  return PiecewiseLinearArccos(k);
}

PiecewiseLinearArccos PiecewiseLinearArccos::paper() { return PiecewiseLinearArccos(0.7236); }

Segment PiecewiseLinearArccos::segment(double r) const {
  if (r < -k_) return Segment::kNegativeOuter;
  if (r > k_) return Segment::kPositiveOuter;
  return Segment::kMiddle;
}

const LinearPiece& PiecewiseLinearArccos::piece(Segment s) const {
  switch (s) {
    case Segment::kNegativeOuter: return negative_;
    case Segment::kPositiveOuter: return positive_;
    case Segment::kMiddle: break;
  }
  return middle_;
}

double PiecewiseLinearArccos::eval(double r) const {
  r = math::clamp_unit(r);
  return piece(segment(r)).eval(r);
}

double PiecewiseLinearArccos::decoded(double r) const { return std::cos(eval(r)); }

double PiecewiseLinearArccos::decode_error(double r, double floor) const {
  return math::relative_error(decoded(r), math::clamp_unit(r), floor);
}

double PiecewiseLinearArccos::integrated_error() const {
  // Paper Eq. 17: ∫₀ᵏ |(cos(π/2 − r) − r)/r| dr + ∫ₖ¹ |(cos(f(r)) − r)/r| dr.
  // The integrand is bounded at r→0 because cos(π/2 − r) = sin(r) ~ r.
  auto integrand = [this](double r) {
    if (r < 1e-12) return 0.0;
    return std::abs((decoded(r) - r) / r);
  };
  return math::integrate(integrand, 0.0, k_) + math::integrate(integrand, k_, 1.0);
}

double PiecewiseLinearArccos::max_decode_error(double lo) const {
  auto err = [this](double r) { return decode_error(r); };
  // The function is symmetric; scan the positive half only.
  return math::dense_maximize(err, lo, 1.0).value;
}

std::string to_string(Segment s) {
  switch (s) {
    case Segment::kNegativeOuter: return "negative-outer";
    case Segment::kMiddle: return "middle";
    case Segment::kPositiveOuter: return "positive-outer";
  }
  return "?";
}

}  // namespace pdac::core
