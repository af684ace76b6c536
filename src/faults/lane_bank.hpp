// lane_bank.hpp — the pool of P-DAC modulator lanes faults act on.
//
// A DDot channel needs two modulators — one on the x rail, one on the y
// rail — so a core with W wavelengths carries 2·W lanes.  Each lane is
// its own fabricated device instance (a PerturbedPdacModel drawn from
// the static-variation distribution) plus a runtime fault overlay
// (core/fault_hook.hpp) and a fence bit the self-test sets when it gives
// a lane up for dead.  A WDM channel is usable only when *both* of its
// rail lanes are un-fenced.
#pragma once

#include <cstdint>
#include <vector>

#include "converters/quantizer.hpp"
#include "core/variation.hpp"

namespace pdac::faults {

struct LaneBankConfig {
  core::PdacConfig pdac{};
  /// Static fabrication spread of the lane devices (seed included);
  /// all-zero sigmas give nominal lanes.
  core::VariationConfig variation{};
  std::size_t wavelengths{8};
};

struct Lane {
  core::PerturbedPdacModel model;
  core::PdacFaultHook hook{};  ///< injector-owned copy, mirrored into the model
  bool fenced{false};          ///< self-test verdict: lane is dead, do not use

  explicit Lane(core::PerturbedPdacModel m) : model(std::move(m)) {}
};

class LaneBank;

/// Factory calibration: gain-trim every lane (core::trim_pdac) the way
/// production test would, so fabrication variation starts inside the
/// error budget.  Runtime faults injected afterwards land on a trimmed
/// device — exactly the state the self-test's re-trim tries to restore.
void production_trim(LaneBank& bank);

class LaneBank {
 public:
  static constexpr std::size_t kRails = 2;  ///< x rail and y rail

  explicit LaneBank(const LaneBankConfig& cfg);

  [[nodiscard]] std::size_t wavelengths() const { return cfg_.wavelengths; }
  [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }
  [[nodiscard]] int bits() const { return cfg_.pdac.bits; }

  [[nodiscard]] Lane& lane(std::size_t flat) { return lanes_.at(flat); }
  [[nodiscard]] const Lane& lane(std::size_t flat) const { return lanes_.at(flat); }
  [[nodiscard]] Lane& lane(std::size_t rail, std::size_t channel) {
    return lanes_.at(rail * cfg_.wavelengths + channel);
  }
  [[nodiscard]] const Lane& lane(std::size_t rail, std::size_t channel) const {
    return lanes_.at(rail * cfg_.wavelengths + channel);
  }

  /// Encode a normalized value through one lane: quantize to the lane's
  /// bit width, then run the (possibly faulty) device.
  [[nodiscard]] double encode(std::size_t rail, std::size_t channel, double r) const;

  /// The usable channels in packing order: channel ch is usable iff
  /// neither of its rail lanes is fenced.  Reduction position p of a
  /// product rides channel surviving_channels()[p % size].
  [[nodiscard]] std::vector<std::size_t> surviving_channels() const;
  [[nodiscard]] std::size_t usable_channels() const { return surviving_channels().size(); }
  [[nodiscard]] std::size_t fenced_lanes() const;

  /// Encode-state epoch: a monotonic stamp every mutator of lane state
  /// (fault injection, re-trim/recalibration, production trim, fencing)
  /// bumps, so the lane tables and encodes built against this bank can
  /// detect stale state (DESIGN.md §10).  Code that mutates lanes
  /// directly through lane() must call bump_epoch() afterwards; a fence
  /// without a bump still reaches the next product, which reads its
  /// packing from surviving_channels().
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  void bump_epoch() { ++epoch_; }

  [[nodiscard]] const LaneBankConfig& config() const { return cfg_; }
  [[nodiscard]] const converters::Quantizer& quantizer() const { return quant_; }

 private:
  LaneBankConfig cfg_;
  converters::Quantizer quant_;
  std::vector<Lane> lanes_;
  std::uint64_t epoch_{0};
};

}  // namespace pdac::faults
