// rng.hpp — deterministic random sources for tests, sweeps, and synthetic
// workload weights.  Everything in the repository that uses randomness
// takes an explicit seed so experiments are reproducible run-to-run.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace pdac {

/// Seeded random generator with the convenience draws the experiments use.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Scales a standard-normal draw, so stddev 0 returns `mean` exactly
  /// (std::normal_distribution requires stddev > 0).  libstdc++ applies
  /// the same z·stddev + mean to the same draw, so the stream is unchanged.
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(0.0, 1.0)(engine_) * stddev + mean;
  }

  std::int64_t integer(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  std::vector<double> uniform_vector(std::size_t n, double lo, double hi) {
    std::vector<double> v(n);
    for (auto& x : v) x = uniform(lo, hi);
    return v;
  }

  std::vector<double> gaussian_vector(std::size_t n, double mean = 0.0, double stddev = 1.0) {
    std::vector<double> v(n);
    for (auto& x : v) x = gaussian(mean, stddev);
    return v;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace pdac
