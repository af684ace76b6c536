// common.hpp — shared plumbing of the repository benchmark: arguments,
// the seeded input generator, timing and percentile helpers, event
// pricing, and the metric report every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ptc/event_counter.hpp"
#include "ptc/gemm_engine.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string trace_dir{".bench_build/traces"};
  std::string git_sha{"unknown"};
};

/// SplitMix64 stream plus the few distributions the workloads draw
/// from.  Kept here rather than taken from the library (common/rng.hpp)
/// so that no library change can alter the inputs it is measured on.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }
  /// Uniform integer in [lo, hi].
  std::uint64_t integer(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
  /// Standard normal (Box–Muller, one draw per call).
  double gaussian();

 private:
  std::uint64_t state_;
};

/// Seed of one input stream of a workload: the run's seed mixed with a
/// per-stream tag, so adding a stream never shifts another.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag);

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

/// The highest percentile of a fixed ladder (50 … 99.9) that leaves at
/// least ten samples beyond it.
struct TailPercentile {
  double percentile{0.0};
  double value{0.0};
  std::size_t samples{0};
};
[[nodiscard]] TailPercentile tail_percentile(std::vector<double> v);

/// Peak resident set size of this process [MiB].
[[nodiscard]] double peak_rss_mb();

/// Event energy under the repository's LT-base configuration at 8 bits
/// [µJ]: `pdac` selects the P-DAC system, else the DAC-based baseline.
[[nodiscard]] double price_uj(const pdac::ptc::EventCounter& events, bool pdac);

[[nodiscard]] const char* path_name(pdac::ptc::ExecutionPath path);

/// Compact rendering of `v` for notes ("99.9", "0.62").
[[nodiscard]] std::string fmt(double v);

/// Bytes per prepared operand element the tier streams.
[[nodiscard]] std::size_t element_bytes(pdac::ptc::ExecutionPath path);

/// Named metrics of one run, printed as a table and as the JSON object
/// the run script reads.
class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  /// A human-readable line printed above the metrics.
  void note(const std::string& line) { notes_.push_back(line); }
  void fail(const std::string& what);
  void count_attempts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  /// Notes, metric table, check verdicts, then one JSON line.
  void print() const;

 private:
  struct Metric {
    std::string name, unit;
    double value;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

/// Host speed, measured beside the timed work.  On a shared host the
/// speed of one core drifts by tens of percent over minutes as other
/// tenants' load comes and goes, and no run length averages that away.
/// So each workload interleaves a fixed calibration loop with its timed
/// work, `kDuty` of the work's time, on the same thread, and reports host
/// times scaled to the reference speed: the speed at which one chunk of
/// the loop takes `kReferenceChunkS`.  The loop is the benchmark's own
/// code, so a library change cannot move it: scaled times still move
/// with the library, but no longer with the neighbours.
///
/// A chunk mixes two kinds of work, in the proportion the workload's own
/// time follows them: arithmetic on an L1-resident block (scalar
/// transcendentals and an FMA dot), and a dependent pointer chase through
/// 16 MiB, which waits on memory.  Other tenants slow the two separately.
class HostSpeed {
 public:
  /// Share of the timed work's time spent calibrating.
  static constexpr double kDuty = 0.1;
  /// One chunk's time at the reference speed [s] (the median on an Intel
  /// Xeon vCPU at 2.1 GHz with AVX2, 4 vCPUs, Release build).
  static constexpr double kReferenceChunkS = 5.5e-3;
  /// One step of the pointer chase at the reference speed [s] (same host).
  static constexpr double kReferenceChaseStepS = 135e-9;

  /// `memory_share`: the share of a chunk's reference time spent in the
  /// pointer chase, in [0, 1].
  explicit HostSpeed(double memory_share = 0.0);
  /// Runs the calibration owed for `work_s` more seconds of timed work;
  /// returns the seconds it took, which the caller leaves out of its time.
  double pace(double work_s);
  /// Mean chunk time over the reference chunk time: above 1 when the
  /// host ran slower than the reference.  1 before any chunk has run.
  [[nodiscard]] double slowdown() const;
  /// `s` host seconds, scaled to the reference speed.
  [[nodiscard]] double at_reference(double s) const { return s / slowdown(); }

 private:
  double chunk();

  std::vector<double> a_, b_;
  int arithmetic_reps_;
  std::size_t chase_steps_;
  std::vector<std::uint32_t> chase_;  ///< one random cycle through every slot
  std::uint32_t at_{0};
  double owed_s_{0.0};
  double chunk_s_{0.0};
  std::size_t chunks_{0};
  double sink_{0.0};
};

/// Run `setup` until it has run at least `min_reps` times and for at
/// least `min_seconds`, or `max_reps` times, calibrating `speed`
/// (nullable) after each call; returns the median time per call [s],
/// unscaled.  `setup` builds and warms everything the timed region needs;
/// the state of its last call is what the workload then times.
template <class F>
double median_setup_s(F&& setup, HostSpeed* speed, std::size_t min_reps, std::size_t max_reps,
                      double min_seconds) {
  std::vector<double> s;
  double total = 0.0;
  while (s.size() < max_reps && (s.size() < min_reps || total < min_seconds)) {
    const std::int64_t t0 = now_ns();
    setup();
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    s.push_back(dt);
    total += dt;
    if (speed != nullptr) speed->pace(dt);
  }
  return median(s);
}

}  // namespace perfbench
