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

void LaneEncoder::operator()(std::span<const double> norm, std::size_t p0,
                             std::span<double> current, std::span<double> reference) const {
  const LaneEncodeTable* fresh = table != nullptr && table->fresh(bank) ? table : nullptr;
  const std::size_t nl = channels.size();
  const std::size_t rail0 = rail * bank.wavelengths();
  // One span quantize (clamp_unit's clamp included), then both amplitudes
  // by code; position p0 + i rides channels[(p0 + i) % nl], advanced with i.
  std::size_t ch = p0 % nl;
  bank.quantizer().encode_each(norm, 1.0, [&](std::size_t i, std::int32_t code) {
    const std::size_t flat = rail0 + channels[ch];
    if (++ch == nl) ch = 0;
    current[i] =
        fresh != nullptr ? fresh->at(flat, code) : bank.lane(flat).model.encode_code(code);
    if (!reference.empty()) reference[i] = golden->at(flat, code);
  });
}

}  // namespace pdac::faults
