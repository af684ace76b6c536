#include "faults/lane_table.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace pdac::faults {

void LaneEncodeTable::rebuild(const LaneBank& bank) {
  const std::int32_t max_code = bank.quantizer().max_code();
  const std::size_t codes = static_cast<std::size_t>(max_code) * 2 + 1;
  // Another geometry evaluates every lane again.
  if (wavelengths_ != bank.wavelengths() || codes_ != codes || stamps_.size() != bank.lanes()) {
    stamps_.assign(bank.lanes(), 0);
  }
  wavelengths_ = bank.wavelengths();
  max_code_ = max_code;
  codes_ = codes;
  table_.resize(bank.lanes() * codes_);
  for (std::size_t l = 0; l < bank.lanes(); ++l) {
    const core::PerturbedPdacModel& model = bank.lane(l).model;
    if (stamps_[l] == model.stamp()) continue;
    for (std::int32_t code = -max_code_; code <= max_code_; ++code) {
      table_[l * codes_ + static_cast<std::size_t>(code + max_code_)] = model.encode_code(code);
    }
    stamps_[l] = model.stamp();
  }
  epoch_ = bank.epoch();
  built_ = true;
}

LaneEncoder::LaneEncoder(const LaneBank& bank, const std::vector<std::size_t>& channels,
                         std::size_t rail, const LaneEncodeTable& table,
                         const LaneEncodeTable* golden)
    : quant_(&bank.quantizer()) {
  PDAC_REQUIRE(table.fresh(bank), "LaneEncoder: the current lane table must be fresh");
  for (const std::size_t ch : channels) {
    const std::size_t flat = rail * bank.wavelengths() + ch;
    current_.push_back(table.row(flat));
    golden_.push_back(golden != nullptr ? golden->row(flat) : nullptr);
  }
}

void LaneEncoder::operator()(std::span<const double> norm, std::span<double> current,
                             std::span<double> reference) const {
  // One span quantize (clamp_unit's clamp included), then both amplitudes
  // by code; position p rides packed channel p % nl.
  const std::size_t nl = current_.size();
  std::size_t ch = 0;
  quant_->encode_each(norm, 1.0, [&](std::size_t i, std::int32_t code) {
    current[i] = current_[ch][code];
    if (!reference.empty()) reference[i] = golden_[ch][code];
    if (++ch == nl) ch = 0;
  });
}

namespace {

/// out[p] = rows[p % NL][codes[p]], one channel period at a time with the
/// NL row pointers held in registers.
template <std::size_t NL>
void gather_period(const double* const* rows, std::span<const std::int16_t> codes,
                   std::span<double> out) {
  const double* r[NL];
  for (std::size_t c = 0; c < NL; ++c) r[c] = rows[c];
  const std::size_t n = codes.size();
  std::size_t p = 0;
  for (; p + NL <= n; p += NL) {
    for (std::size_t c = 0; c < NL; ++c) out[p + c] = r[c][codes[p + c]];
  }
  for (std::size_t c = 0; p < n; ++p, ++c) out[p] = r[c][codes[p]];
}

/// out[p] = rows[p % rows.size()][codes[p]].
void gather(const std::vector<const double*>& rows, std::span<const std::int16_t> codes,
            std::span<double> out) {
  switch (rows.size()) {
    case 1: return gather_period<1>(rows.data(), codes, out);
    case 2: return gather_period<2>(rows.data(), codes, out);
    case 3: return gather_period<3>(rows.data(), codes, out);
    case 4: return gather_period<4>(rows.data(), codes, out);
    case 5: return gather_period<5>(rows.data(), codes, out);
    case 6: return gather_period<6>(rows.data(), codes, out);
    case 7: return gather_period<7>(rows.data(), codes, out);
    case 8: return gather_period<8>(rows.data(), codes, out);
    default: break;
  }
  std::size_t c = 0;
  for (std::size_t p = 0; p < codes.size(); ++p) {
    out[p] = rows[c][codes[p]];
    if (++c == rows.size()) c = 0;
  }
}

}  // namespace

void LaneEncoder::decode(std::span<const std::int16_t> codes, std::span<double> current,
                         std::span<double> reference) const {
  gather(current_, codes, current);
  if (!reference.empty()) gather(golden_, codes, reference);
}

}  // namespace pdac::faults
