// span_rule_cases.hpp — inputs that pin the span quantizer (simd::quantize,
// behind Quantizer::encode's and ElectricalAdc::sample_to_voltage's span
// forms) to the scalar rounding rule, shared by test_quantizer.cpp and
// test_electrical_adc.cpp.
#pragma once

#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace pdac::span_rule {

/// Inputs for a grid of ±max_code scaled by divisor d.  The hard cases come
/// first, so short spans at offsets 0–3 put each of them both in the vector
/// body and in the tail: the largest double below ½ (where
/// trunc(y + copysign(½, y)) rounds wrong), ±0, ±1, ±d, a subnormal,
/// ±DBL_MAX, ±Inf and NaN.  Then 1000 uniform values over ±1.5·d, then every
/// rounding tie (c + ½)/max_code·d of the grid, the two just outside ±1
/// included, each with both neighbours.
inline std::vector<double> inputs(std::int32_t max_code, double d, Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const double below_half = 0.49999999999999994;
  std::vector<double> v = {below_half,
                           -0.0,
                           0.0,
                           1.0,
                           -1.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           inf,
                           -inf,
                           DBL_MAX,
                           -DBL_MAX,
                           std::numeric_limits<double>::denorm_min(),
                           -below_half,
                           d,
                           -d,
                           below_half / max_code * d,
                           -below_half / max_code * d};
  for (int i = 0; i < 1000; ++i) v.push_back(rng.uniform(-1.5, 1.5) * d);
  for (std::int32_t c = -max_code - 1; c <= max_code; ++c) {
    const double tie = (c + 0.5) / max_code * d;
    v.push_back(tie);
    v.push_back(std::nextafter(tie, -inf));
    v.push_back(std::nextafter(tie, inf));
  }
  return v;
}

/// Span lengths that reach every tail position of the 4-wide body, plus
/// one long span; each is taken at start offsets 0–3.
inline std::vector<std::size_t> lengths() {
  std::vector<std::size_t> n;
  for (std::size_t len = 0; len < 20; ++len) n.push_back(len);
  n.push_back(1000);
  return n;
}

}  // namespace pdac::span_rule
