#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_utils.hpp"
#include "common/require.hpp"

namespace pdac::stats {

void Running::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Running::merge(const Running& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double Running::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double Running::stddev() const { return std::sqrt(variance()); }

VectorError compare(std::span<const double> measured, std::span<const double> reference,
                    double rel_floor) {
  PDAC_REQUIRE(measured.size() == reference.size(), "compare: length mismatch");
  PDAC_REQUIRE(!measured.empty(), "compare: empty input");
  VectorError e;
  double sq_err = 0.0, sq_ref = 0.0, dot = 0.0, sq_meas = 0.0;
  for (std::size_t i = 0; i < measured.size(); ++i) {
    const double d = measured[i] - reference[i];
    sq_err += d * d;
    sq_ref += reference[i] * reference[i];
    sq_meas += measured[i] * measured[i];
    dot += measured[i] * reference[i];
    e.max_abs = std::max(e.max_abs, std::abs(d));
    e.max_rel = std::max(e.max_rel, math::relative_error(measured[i], reference[i], rel_floor));
  }
  const double n = static_cast<double>(measured.size());
  e.rmse = std::sqrt(sq_err / n);
  e.rel_frobenius = sq_ref > 0.0 ? std::sqrt(sq_err / sq_ref) : std::sqrt(sq_err);
  const double norm = std::sqrt(sq_meas) * std::sqrt(sq_ref);
  e.cosine = norm > 0.0 ? dot / norm : 1.0;
  return e;
}

}  // namespace pdac::stats
