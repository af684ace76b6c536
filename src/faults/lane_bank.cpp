#include "faults/lane_bank.hpp"

#include "common/math_utils.hpp"
#include "common/require.hpp"
#include "core/trimming.hpp"

namespace pdac::faults {

void production_trim(LaneBank& bank) {
  for (std::size_t i = 0; i < bank.lanes(); ++i) {
    core::trim_pdac(bank.lane(i).model);
  }
  bank.bump_epoch();  // trimmed devices encode differently
}

LaneBank::LaneBank(const LaneBankConfig& cfg) : cfg_(cfg), quant_(cfg.pdac.bits) {
  PDAC_REQUIRE(cfg_.wavelengths >= 1, "LaneBank: at least one wavelength");
  Rng rng(cfg_.variation.seed);
  lanes_.reserve(kRails * cfg_.wavelengths);
  for (std::size_t i = 0; i < kRails * cfg_.wavelengths; ++i) {
    lanes_.emplace_back(core::PerturbedPdacModel(cfg_.pdac, cfg_.variation, rng));
  }
}

double LaneBank::encode(std::size_t rail, std::size_t channel, double r) const {
  const Lane& ln = lane(rail, channel);
  return ln.model.encode_code(quant_.encode(math::clamp_unit(r)));
}

std::vector<std::size_t> LaneBank::surviving_channels() const {
  std::vector<std::size_t> channels;
  for (std::size_t ch = 0; ch < cfg_.wavelengths; ++ch) {
    if (!lane(0, ch).fenced && !lane(1, ch).fenced) channels.push_back(ch);
  }
  return channels;
}

std::size_t LaneBank::fenced_lanes() const {
  std::size_t n = 0;
  for (const Lane& ln : lanes_) n += ln.fenced ? 1u : 0u;
  return n;
}

}  // namespace pdac::faults
