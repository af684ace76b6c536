// arccos_approx.hpp — the approximation at the heart of the P-DAC
// (paper §III-C, Eq. 14–18, Fig. 8).
//
// To imprint an analog value r on a carrier the MZM must be driven with
// phase V′₁ = arccos(r).  A weighted-TIA bank can only realize *linear*
// functions of the digital code, so P-DAC replaces arccos with piecewise
// linear segments:
//
//   1-segment (first-order Taylor, Eq. 15):
//       f(r) = π/2 − r                  max decode error 15.9 % at r = ±1
//   3-segment (Eq. 18, breakpoint k):
//       f(r) = π/2 − r                  |r| ≤ k
//       f(r) = (k − π/2)/(k − 1)·(1−r)  k < r ≤ 1
//       f(r) = π − f(−r)                −1 ≤ r < −k   (arccos symmetry)
//   with k ≈ 0.7236 minimizing the integrated relative decode error
//   (Eq. 17); max decode error ≈ 8.5 % at r = ±k.
//
// "Decode error" is |cos(f(r)) − r| / |r|: the deviation of the value the
// optics actually produce from the value requested.
#pragma once

#include <string>

namespace pdac::core {

/// First-order Taylor approximation of arccos (paper Eq. 15).
double arccos_taylor1(double r);

/// Identifier of the active linear segment for a given r.
enum class Segment { kNegativeOuter, kMiddle, kPositiveOuter };

/// One linear piece f(r) = slope·r + intercept on [lo, hi].
struct LinearPiece {
  double lo{};
  double hi{};
  double slope{};
  double intercept{};

  [[nodiscard]] double eval(double r) const { return slope * r + intercept; }
};

/// The paper's 3-segment piecewise-linear arccos approximation.
class PiecewiseLinearArccos {
 public:
  /// Build the Eq. 18 function for an arbitrary breakpoint k ∈ (0, 1).
  static PiecewiseLinearArccos with_breakpoint(double k);
  /// The paper's published instance (k = 0.7236, slope −3.0651,
  /// intercept 0.07648 on the negative outer segment).
  static PiecewiseLinearArccos paper();

  /// f(r): the phase the P-DAC drives the MZM with.  r is clamped to
  /// [−1, 1] (codes can never leave that range).
  [[nodiscard]] double eval(double r) const;

  /// cos(f(r)): the analog value the optics actually produce.
  [[nodiscard]] double decoded(double r) const;

  /// |cos(f(r)) − r| / max(|r|, floor): paper's error metric.
  [[nodiscard]] double decode_error(double r, double floor = 1e-9) const;

  [[nodiscard]] Segment segment(double r) const;
  [[nodiscard]] double breakpoint() const { return k_; }

  /// The three pieces, ordered negative-outer, middle, positive-outer —
  /// exactly what gets programmed into the TIA weight banks.
  [[nodiscard]] const LinearPiece& piece(Segment s) const;

  /// Integrated relative decode error over [0, 1] (paper Eq. 17, the
  /// objective the breakpoint optimizer minimizes).
  [[nodiscard]] double integrated_error() const;

  /// Worst-case decode error over |r| ∈ [lo, 1]; paper reports 8.5 %.
  [[nodiscard]] double max_decode_error(double lo = 1e-3) const;

 private:
  explicit PiecewiseLinearArccos(double k);

  double k_;
  LinearPiece negative_;
  LinearPiece middle_;
  LinearPiece positive_;
};

std::string to_string(Segment s);

}  // namespace pdac::core
