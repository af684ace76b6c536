// lane_table.hpp — the faults layer's encode source: an epoch-keyed flat
// coefficient table over a LaneBank's encoders (the faults-layer
// counterpart of ptc/kernel.hpp's snapshot) and the one lane encoder
// every faults-layer operand is encoded through.
//
// LaneBank::encode is a pure function of the quantized code: it clamps,
// quantizes, and evaluates the lane's PerturbedPdacModel transfer at that
// code.  A bank with W wavelengths therefore collapses into a flat
// (2W · codes) table of doubles, turning every hot-path encode from a
// multi-segment model evaluation into one LUT load, bit-identical by
// construction.
//
// The table serves two roles.  Kept CURRENT through ensure(), it is
// rebuilt whenever the bank's epoch moves, so injected faults, re-trims
// and recalibrations are never served stale.  The same caveat as every
// epoch consumer applies (lane_bank.hpp): code that mutates lanes
// directly through lane() must bump_epoch() afterwards.  PINNED through
// rebuild() at a trusted calibration point, it is GuardedBackend's golden
// snapshot, which must not follow the bank.
//
// Thread safety: ensure() and rebuild() mutate and must be called between
// parallel regions (backends call them at product entry and after every
// in-product mutation point); reads are const and safe to call
// concurrently.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "converters/quantizer.hpp"
#include "faults/lane_bank.hpp"

namespace pdac::faults {

class LaneEncodeTable {
 public:
  /// Rebuild from `bank` iff stale (never built, epoch moved, or bank
  /// geometry changed).  O(lanes · codes) when it rebuilds, O(1) when
  /// fresh — one decode token amortizes it after a single epoch bump.
  void ensure(const LaneBank& bank) {
    if (!fresh(bank)) rebuild(bank);
  }

  /// Snapshot every lane's transfer at every code now, whatever the
  /// epoch says.
  void rebuild(const LaneBank& bank);

  [[nodiscard]] bool fresh(const LaneBank& bank) const {
    return built_ && epoch_ == bank.epoch() && wavelengths_ == bank.wavelengths() &&
           table_.size() == bank.lanes() * codes_;
  }

  /// Amplitude of quantizer code `code` through flat lane `flat`.
  [[nodiscard]] double at(std::size_t flat, std::int32_t code) const {
    return table_[flat * codes_ + static_cast<std::size_t>(code + max_code_)];
  }

  /// LUT-backed equivalent of LaneBank::encode(rail, channel, r) —
  /// bit-identical to the model evaluation it caches.
  [[nodiscard]] double encode(std::size_t rail, std::size_t channel, double r) const;

 private:
  std::vector<double> table_;  ///< lane-major: flat_lane · codes + (code + max_code)
  converters::Quantizer quant_{8};
  std::size_t wavelengths_{0};
  std::size_t codes_{0};
  std::int32_t max_code_{0};
  std::uint64_t epoch_{0};
  bool built_{false};
};

/// Encodes normalized values through the lanes that carry them: reduction
/// position p rides channel channels[p % channels.size()] of `rail` (x
/// rail 0 for A, y rail 1 for B).  The CURRENT amplitude comes from
/// `table` while it is fresh and from the live lane model otherwise (no
/// table, or a stale one), bit-identical either way, so a missed ensure()
/// can cost speed but never correctness.  When a reference span is asked
/// for, the GOLDEN amplitude comes from the pinned `golden` snapshot.
/// Each call quantizes its span once through the span rule
/// (Quantizer::encode_each, DESIGN.md §18) and reads both amplitudes by
/// code, advancing the channel index with the position.  Serves as the
/// ptc::RowEncoder of every faults-layer prepare and append, encodes A
/// rows the same way, and re-encodes stale stripes under a storm.
struct LaneEncoder {
  const LaneBank& bank;
  const std::vector<std::size_t>& channels;
  std::size_t rail{0};
  const LaneEncodeTable* table{nullptr};
  const LaneEncodeTable* golden{nullptr};

  void operator()(std::span<const double> norm, std::size_t p0, std::span<double> current,
                  std::span<double> reference) const;
};

}  // namespace pdac::faults
