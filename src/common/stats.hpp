// stats.hpp — streaming statistics and vector error metrics.
//
// Used by the accuracy experiments (P-DAC vs ideal-DAC encodings, photonic
// GEMM vs double-precision reference) and by the noise models' self-tests.
#pragma once

#include <cstddef>
#include <span>

namespace pdac::stats {

/// Welford streaming accumulator: numerically stable mean/variance plus
/// min/max, usable over arbitrarily long sweeps without storing samples.
class Running {
 public:
  void add(double x);
  void merge(const Running& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Population variance (n denominator); 0 for n < 2.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Error metrics between a measured vector and a reference vector.
struct VectorError {
  double rmse{};          ///< root mean squared error
  double max_abs{};       ///< worst absolute deviation
  double max_rel{};       ///< worst relative deviation (floored denominator)
  double rel_frobenius{}; ///< ||m - r||_2 / ||r||_2
  double cosine{};        ///< cosine similarity of the two vectors
};

/// Compute all metrics in one pass.  Spans must be the same length.
VectorError compare(std::span<const double> measured, std::span<const double> reference,
                    double rel_floor = 1e-9);

}  // namespace pdac::stats
