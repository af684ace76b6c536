#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "arch/energy_model.hpp"
#include "arch/lt_config.hpp"
#include "arch/power_params.hpp"

namespace perfbench {

double InputRng::gaussian() {
  // 1 − unit() lies in (0, 1], so the log is finite.
  const double u1 = 1.0 - unit();
  const double u2 = unit();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  InputRng mix(seed * 0x100000001b3ull + tag);
  return mix.next();
}

HostSpeed::HostSpeed(double memory_share)
    : a_(2048),
      b_(2048),
      arithmetic_reps_(static_cast<int>(std::lround(100.0 * (1.0 - memory_share)))),
      chase_steps_(static_cast<std::size_t>(
          std::lround(memory_share * kReferenceChunkS / kReferenceChaseStepS))) {
  InputRng rng(0x5eed);
  for (double& v : a_) v = rng.uniform(-0.99, 0.99);
  for (double& v : b_) v = rng.uniform(-1.0, 1.0);
  if (chase_steps_ > 0) {
    // Sattolo's shuffle: a single cycle, so the chase visits every slot.
    chase_.resize(std::size_t{4} << 20);
    for (std::size_t i = 0; i < chase_.size(); ++i) chase_[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = chase_.size() - 1; i > 0; --i) {
      std::swap(chase_[i], chase_[rng.integer(0, i - 1)]);
    }
  }
  (void)chunk();  // warm caches and branch predictors; not counted
}

double HostSpeed::chunk() {
  const std::int64_t t0 = now_ns();
  // Scalar transcendental work plus an FMA-friendly dot over 32 KiB of
  // doubles: the mix the simulator's tile loops spend their time on.
  double acc = 0.0;
  for (int rep = 0; rep < arithmetic_reps_; ++rep) {
    for (std::size_t i = 0; i < a_.size(); ++i) {
      acc += std::cos(std::acos(a_[i]) + b_[i]) * b_[i];
      a_[i] = std::clamp(std::fma(a_[i], -0.7, 0.3 * b_[i] + acc * 1e-12), -0.99, 0.99);
    }
    double dot = 0.0;
    for (std::size_t i = 0; i < a_.size(); ++i) dot += a_[i] * b_[i];
    acc += dot * 1e-9;
  }
  // Dependent loads through 16 MiB: each waits for the one before.
  std::uint32_t at = at_;
  for (std::size_t i = 0; i < chase_steps_; ++i) at = chase_[at];
  at_ = at;
  sink_ += acc;  // keeps the loop's result live
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double HostSpeed::pace(double work_s) {
  owed_s_ += kDuty * work_s;
  double spent = 0.0;
  while (owed_s_ > 0.0) {
    const double s = chunk();
    owed_s_ -= s;
    spent += s;
    chunk_s_ += s;
    ++chunks_;
  }
  return spent;
}

double HostSpeed::slowdown() const {
  return chunks_ > 0 ? chunk_s_ / static_cast<double>(chunks_) / kReferenceChunkS : 1.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

TailPercentile tail_percentile(std::vector<double> v) {
  TailPercentile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const double ladder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  const double n = static_cast<double>(v.size());
  for (const double p : ladder) {
    if (n * (1.0 - p / 100.0) >= 10.0 || p == 50.0) {
      // Nearest rank: the smallest sample with at least p % at or below it.
      const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
      out.percentile = p;
      out.value = v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
      return out;
    }
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double price_uj(const pdac::ptc::EventCounter& events, bool pdac) {
  static const pdac::arch::LtConfig lt = pdac::arch::lt_base();
  static const pdac::arch::PowerParams params = pdac::arch::lt_power_params();
  const auto variant =
      pdac ? pdac::arch::SystemVariant::kPdacBased : pdac::arch::SystemVariant::kDacBased;
  return pdac::arch::event_energy(events, lt, params, 8, variant).microjoules();
}

const char* path_name(pdac::ptc::ExecutionPath path) {
  switch (path) {
    case pdac::ptc::ExecutionPath::kKernel: return "kernel";
    case pdac::ptc::ExecutionPath::kDeviceGraph: return "device-graph";
    case pdac::ptc::ExecutionPath::kKernelSimd: return "kernel-simd";
    case pdac::ptc::ExecutionPath::kKernelQuant: return "kernel-quant";
  }
  return "unknown";
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::size_t element_bytes(pdac::ptc::ExecutionPath path) {
  return path == pdac::ptc::ExecutionPath::kKernelQuant ? sizeof(std::int16_t) : sizeof(double);
}

void Report::add(const std::string& name, const std::string& unit, double value) {
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  metrics_.push_back({name, unit, std::isfinite(value) ? value : 0.0});
}

void Report::fail(const std::string& what) { failures_.push_back(what); }

void Report::print() const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-44s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : failures_) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("checks: %s\n", correct() ? "all passed" : "FAILED");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
