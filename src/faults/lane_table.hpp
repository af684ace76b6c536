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
// and recalibrations are never served stale; it is the lane executor's
// only source of current lane state, and LaneEncoder refuses a stale
// one.  The same caveat as every epoch consumer applies (lane_bank.hpp):
// code that mutates lanes directly through lane() must bump_epoch()
// afterwards.  PINNED through rebuild() at a trusted calibration point,
// it is GuardedBackend's golden snapshot, which must not follow the
// bank.
//
// A rebuild is per lane: each row remembers the model stamp
// (core::PerturbedPdacModel::stamp) it was evaluated at, and only a lane
// whose stamp moved is evaluated again — a fault, fence or re-trim
// usually touches one or two of the bank's lanes.  Equal stamps mean
// equal models, so every entry is the bits a full build writes.
//
// Thread safety: ensure() and rebuild() mutate and must be called between
// parallel regions (backends call them at product entry and after every
// in-product mutation point); reads are const and safe to call
// concurrently.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "faults/lane_bank.hpp"

namespace pdac::faults {

class LaneEncodeTable {
 public:
  /// Rebuild from `bank` iff stale (never built, epoch moved, or bank
  /// geometry changed).  O(changed lanes · codes) when it rebuilds, O(1)
  /// when fresh — one decode token amortizes it after a single epoch bump.
  void ensure(const LaneBank& bank) {
    if (!fresh(bank)) rebuild(bank);
  }

  /// Snapshot every lane's transfer at every code now, whatever the
  /// epoch says: a lane whose model stamp moved since its row was written
  /// is evaluated at every code again; a geometry change evaluates all.
  void rebuild(const LaneBank& bank);

  [[nodiscard]] bool fresh(const LaneBank& bank) const {
    return built_ && epoch_ == bank.epoch() && wavelengths_ == bank.wavelengths() &&
           table_.size() == bank.lanes() * codes_;
  }

  /// Flat lane `flat`'s amplitudes indexed by quantizer code:
  /// row(flat)[code] for code in [−max_code, max_code].
  [[nodiscard]] const double* row(std::size_t flat) const {
    return table_.data() + flat * codes_ + static_cast<std::size_t>(max_code_);
  }

  /// Amplitude of quantizer code `code` through flat lane `flat`.
  [[nodiscard]] double at(std::size_t flat, std::int32_t code) const { return row(flat)[code]; }

 private:
  std::vector<double> table_;  ///< lane-major: flat_lane · codes + (code + max_code)
  /// Per lane: the model stamp its row was evaluated at (0: none yet).
  std::vector<std::uint64_t> stamps_;
  std::size_t wavelengths_{0};
  std::size_t codes_{0};
  std::int32_t max_code_{0};
  std::uint64_t epoch_{0};
  bool built_{false};
};

/// Converts one operand row through the lanes that carry it: reduction
/// position p rides channel channels[p % channels.size()] of `rail` (x
/// rail 0 for A, y rail 1 for B).  operator() encodes normalized values
/// (the A side); decode() turns a code operand's stored quantizer codes
/// into amplitudes (the B side, per tile step).  The CURRENT amplitude
/// comes from `table`, which must be fresh for `bank` at construction
/// (PDAC_REQUIRE: a missed ensure() throws).  When a reference span is
/// asked for, the GOLDEN amplitude comes from the pinned `golden`
/// snapshot.  Construction picks each packed channel's table rows
/// (current and golden) once, so a call only quantizes its span through
/// the span rule (Quantizer::encode_each, DESIGN.md §18) or reads its
/// codes, and reads both amplitudes by code, advancing the channel with
/// the position.  Both calls read a row from position 0, and an encode
/// then decode of the same row gives the same bits.  Build one per use:
/// the bank must not move its epoch while an encoder is in use.
class LaneEncoder {
 public:
  LaneEncoder(const LaneBank& bank, const std::vector<std::size_t>& channels, std::size_t rail,
              const LaneEncodeTable& table, const LaneEncodeTable* golden = nullptr);

  /// current[p] (and reference[p] when non-empty) = the amplitude of
  /// norm[p]'s code at position p.
  void operator()(std::span<const double> norm, std::span<double> current,
                  std::span<double> reference = {}) const;

  /// current[p] (and reference[p] when non-empty) = the amplitude of
  /// codes[p] at position p.
  void decode(std::span<const std::int16_t> codes, std::span<double> current,
              std::span<double> reference = {}) const;

 private:
  const converters::Quantizer* quant_;
  /// Per packed channel: its amplitudes by code — the current table's row
  /// and the golden row (null without a snapshot).
  std::vector<const double*> current_;
  std::vector<const double*> golden_;
};

}  // namespace pdac::faults
