#include "arch/mapper.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "arch/energy_model.hpp"
#include "common/require.hpp"

namespace pdac::arch {

double Schedule::utilization() const {
  const double denom =
      static_cast<double>(arrays) * static_cast<double>(makespan_cycles);
  return denom > 0.0 ? static_cast<double>(busy_array_cycles) / denom : 1.0;
}

double Schedule::ddot_utilization() const {
  const double denom = static_cast<double>(arrays) *
                       static_cast<double>(ddots_per_array) *
                       static_cast<double>(makespan_cycles);
  return denom > 0.0 ? static_cast<double>(busy_ddot_cycles) / denom : 1.0;
}

units::Time Schedule::runtime(units::Frequency clock) const {
  return units::seconds(static_cast<double>(makespan_cycles) / clock.hertz());
}

std::uint64_t Schedule::ideal_cycles() const {
  return (busy_array_cycles + arrays - 1) / std::max<std::size_t>(arrays, 1);
}

double Schedule::slowdown() const {
  const auto ideal = ideal_cycles();
  return ideal > 0 ? static_cast<double>(makespan_cycles) / static_cast<double>(ideal)
                   : 1.0;
}

Stage stage_of(const nn::GemmOp& op) {
  const auto has = [&op](const char* needle) {
    return op.label.find(needle) != std::string::npos;
  };
  if (has("Q-proj") || has("K-proj") || has("V-proj")) return Stage::kQkvProjection;
  if (has("QK^T")) return Stage::kScores;
  if (has("AV")) return Stage::kContext;
  if (has("O-proj")) return Stage::kOutputProjection;
  if (has("FFN-up")) return Stage::kFfnUp;
  if (has("FFN-down")) return Stage::kFfnDown;
  // Unknown ops are treated as fully serializing, the safe assumption.
  return Stage::kFfnDown;
}

namespace {

/// Layer key of an op label ("L3." or "D7." prefix); ops sharing a key
/// and stage may run concurrently.
std::string layer_key(const std::string& label) {
  const auto dot = label.find('.');
  return dot == std::string::npos ? label : label.substr(0, dot);
}

}  // namespace

namespace {

Schedule schedule_on_pool(const nn::WorkloadTrace& trace, const LtConfig& cfg,
                          std::size_t pool_arrays, double wavelength_availability) {
  Schedule sched;
  sched.arrays = pool_arrays;
  sched.ddots_per_array = cfg.array_rows * cfg.array_cols;

  // Group consecutive ops by (layer, stage) preserving trace order —
  // layers are sequentially dependent, stages within a layer ordered.
  struct Group {
    std::vector<const nn::GemmOp*> ops;
  };
  std::vector<Group> groups;
  std::string last_key;
  Stage last_stage{};
  for (const auto& op : trace.gemms) {
    const std::string key = layer_key(op.label);
    const Stage st = stage_of(op);
    if (groups.empty() || key != last_key || st != last_stage) {
      groups.emplace_back();
      last_key = key;
      last_stage = st;
    }
    groups.back().ops.push_back(&op);
  }

  std::uint64_t clock_cycle = 0;
  for (const auto& group : groups) {
    // Concurrent ops split the array pool evenly; when a group holds
    // more ops than arrays, it executes in waves of `arrays` ops.
    const std::size_t n = group.ops.size();
    std::size_t idx = 0;
    while (idx < n) {
      const std::size_t wave = std::min(sched.arrays, n - idx);
      const std::size_t per_op = std::max<std::size_t>(1, sched.arrays / wave);
      std::uint64_t wave_span = 0;
      for (std::size_t i = 0; i < wave; ++i) {
        const nn::GemmOp* op = group.ops[idx + i];
        ptc::EventCounter ev = analytic_events(*op, cfg);
        if (wavelength_availability < 1.0) {
          // Dead wavelengths shrink every reduction chunk, stretching the
          // same work over proportionally more cycles.
          const auto stretch = [wavelength_availability](std::uint64_t c) {
            return static_cast<std::uint64_t>(
                std::ceil(static_cast<double>(c) / wavelength_availability));
          };
          ev.cycles = stretch(ev.cycles);
          ev.ddot_ops = stretch(ev.ddot_ops);
        }
        const std::uint64_t span = (ev.cycles + per_op - 1) / per_op;
        ScheduledOp s;
        s.label = op->label;
        s.op_class = op->op_class;
        s.stage = stage_of(*op);
        s.start_cycle = clock_cycle;
        s.end_cycle = clock_cycle + span;
        s.arrays_assigned = per_op;
        s.work_array_cycles = ev.cycles;
        sched.busy_array_cycles += ev.cycles;
        sched.busy_ddot_cycles += ev.ddot_ops;
        wave_span = std::max(wave_span, span);
        sched.ops.push_back(std::move(s));
      }
      clock_cycle += wave_span;
      idx += wave;
    }
  }
  sched.makespan_cycles = clock_cycle;
  return sched;
}

}  // namespace

Schedule schedule_trace(const nn::WorkloadTrace& trace, const LtConfig& cfg) {
  PDAC_REQUIRE(cfg.arrays() >= 1, "schedule_trace: need at least one array");
  return schedule_on_pool(trace, cfg, cfg.arrays(), 1.0);
}

Schedule schedule_trace(const nn::WorkloadTrace& trace, const LtConfig& cfg,
                        const DegradedCapacity& degraded) {
  PDAC_REQUIRE(degraded.healthy_arrays >= 1 && degraded.healthy_arrays <= cfg.arrays(),
               "schedule_trace: healthy arrays must be in [1, pool size]");
  PDAC_REQUIRE(degraded.wavelength_availability > 0.0 &&
                   degraded.wavelength_availability <= 1.0,
               "schedule_trace: wavelength availability in (0, 1]");
  Schedule sched = schedule_on_pool(trace, cfg, degraded.healthy_arrays,
                                    degraded.wavelength_availability);
  // Tiles the full pool would have placed on now-fenced arrays; each one
  // re-stages its operands on a survivor (priced by the energy model).
  const double dead_fraction =
      1.0 - static_cast<double>(degraded.healthy_arrays) /
                static_cast<double>(cfg.arrays());
  if (dead_fraction > 0.0) {
    std::uint64_t total_tiles = 0;
    for (const auto& op : trace.gemms) {
      const std::uint64_t tiles_m = (op.m + cfg.array_rows - 1) / cfg.array_rows;
      const std::uint64_t tiles_n = (op.n + cfg.array_cols - 1) / cfg.array_cols;
      total_tiles += tiles_m * tiles_n * op.repeats;
    }
    sched.remapped_tiles = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(total_tiles) * dead_fraction));
  }
  return sched;
}

std::string to_string(Stage s) {
  switch (s) {
    case Stage::kQkvProjection: return "qkv-proj";
    case Stage::kScores: return "scores";
    case Stage::kContext: return "context";
    case Stage::kOutputProjection: return "o-proj";
    case Stage::kFfnUp: return "ffn-up";
    case Stage::kFfnDown: return "ffn-down";
  }
  return "?";
}

}  // namespace pdac::arch
