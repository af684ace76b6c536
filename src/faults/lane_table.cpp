#include "faults/lane_table.hpp"

#include "common/math_utils.hpp"

namespace pdac::faults {

void LaneEncodeTable::rebuild(const LaneBank& bank) {
  quant_ = bank.quantizer();
  wavelengths_ = bank.wavelengths();
  max_code_ = quant_.max_code();
  codes_ = static_cast<std::size_t>(max_code_) * 2 + 1;
  table_.resize(bank.lanes() * codes_);
  for (std::size_t l = 0; l < bank.lanes(); ++l) {
    const Lane& lane = bank.lane(l);
    for (std::int32_t code = -max_code_; code <= max_code_; ++code) {
      table_[l * codes_ + static_cast<std::size_t>(code + max_code_)] =
          lane.model.encode_code(code);
    }
  }
  epoch_ = bank.epoch();
  built_ = true;
}

double LaneEncodeTable::encode(std::size_t rail, std::size_t channel, double r) const {
  return at(rail * wavelengths_ + channel, quant_.encode(math::clamp_unit(r)));
}

LaneEncoder::LaneEncoder(const LaneBank& bank, const std::vector<std::size_t>& channels,
                         std::size_t rail, const LaneEncodeTable* table,
                         const LaneEncodeTable* golden)
    : bank_(&bank), live_(table == nullptr || !table->fresh(bank)) {
  packed_.reserve(channels.size());
  for (const std::size_t ch : channels) {
    const std::size_t flat = rail * bank.wavelengths() + ch;
    packed_.push_back({flat, live_ ? nullptr : table->row(flat),
                       golden != nullptr ? golden->row(flat) : nullptr});
  }
}

void LaneEncoder::operator()(std::span<const double> norm, std::size_t p0, std::size_t step,
                             std::span<double> current, std::span<double> reference) const {
  // One span quantize (clamp_unit's clamp included), then both amplitudes
  // by code; position p0 + i·step rides packed channel (p0 + i·step) % nl.
  const std::size_t nl = packed_.size();
  const converters::Quantizer& quant = bank_->quantizer();
  if (step == 0) {
    // One position, one channel: every value reads that channel's rows.
    const Packed& lane = packed_[p0 % nl];
    quant.encode_each(norm, 1.0, [&](std::size_t i, std::int32_t code) {
      current[i] = live_ ? bank_->lane(lane.flat).model.encode_code(code) : lane.current[code];
      if (!reference.empty()) reference[i] = lane.golden[code];
    });
    return;
  }
  std::size_t ch = p0 % nl;
  if (live_) {
    quant.encode_each(norm, 1.0, [&](std::size_t i, std::int32_t code) {
      current[i] = bank_->lane(packed_[ch].flat).model.encode_code(code);
      if (!reference.empty()) reference[i] = packed_[ch].golden[code];
      if (++ch == nl) ch = 0;
    });
  } else if (reference.empty()) {
    quant.encode_each(norm, 1.0, [&](std::size_t i, std::int32_t code) {
      current[i] = packed_[ch].current[code];
      if (++ch == nl) ch = 0;
    });
  } else {
    quant.encode_each(norm, 1.0, [&](std::size_t i, std::int32_t code) {
      const Packed& lane = packed_[ch];
      current[i] = lane.current[code];
      reference[i] = lane.golden[code];
      if (++ch == nl) ch = 0;
    });
  }
}

}  // namespace pdac::faults
