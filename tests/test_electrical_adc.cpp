// Unit tests for the electrical ADC (shared by both system variants).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "converters/electrical_adc.hpp"
#include "span_rule_cases.hpp"

namespace {

using namespace pdac;
using namespace pdac::converters;

ElectricalAdcConfig cfg_bits(int bits, double v_ref = 1.0) {
  ElectricalAdcConfig cfg;
  cfg.bits = bits;
  cfg.v_ref = v_ref;
  return cfg;
}

TEST(ElectricalAdc, SamplesLinearly) {
  const ElectricalAdc adc(cfg_bits(8));
  EXPECT_EQ(adc.sample(0.0), 0);
  EXPECT_EQ(adc.sample(1.0), 127);
  EXPECT_EQ(adc.sample(-1.0), -127);
  EXPECT_EQ(adc.sample(0.5), 64);  // round(63.5)
}

TEST(ElectricalAdc, ClampsBeyondFullScale) {
  const ElectricalAdc adc(cfg_bits(8));
  EXPECT_EQ(adc.sample(3.0), 127);
  EXPECT_EQ(adc.sample(-3.0), -127);
}

TEST(ElectricalAdc, VrefSetsFullScale) {
  const ElectricalAdc adc(cfg_bits(8, 4.0));
  EXPECT_EQ(adc.sample(4.0), 127);
  EXPECT_EQ(adc.sample(2.0), 64);
}

TEST(ElectricalAdc, RoundTripWithinHalfLsb) {
  const ElectricalAdc adc(cfg_bits(8, 2.0));
  const double lsb = 2.0 / 127.0;
  for (double v = -2.0; v <= 2.0; v += 0.137) {
    EXPECT_NEAR(adc.sample_to_voltage(v), v, 0.5 * lsb + 1e-12) << "v=" << v;
  }
}

/// First index where got[i] and sample_to_voltage(in[off + i]) differ in
/// any bit (−0.0 against +0.0 included), or got.size() when none.
std::size_t first_mismatch(const ElectricalAdc& adc, const std::vector<double>& in,
                           std::size_t off, const std::vector<double>& got) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(adc.sample_to_voltage(in[off + i]))) {
      return i;
    }
  }
  return got.size();
}

TEST(ElectricalAdc, SpanReadoutEqualsScalarBitForBit) {
  // The span readout must equal the scalar round trip bit for bit at every
  // bit width and V_ref — on every rounding tie and its neighbours, ±0,
  // the extremes, ±Inf and NaN — whole, in place, and in spans ending at
  // every tail position.
  Rng rng(93);
  for (int bits = 2; bits <= 16; ++bits) {
    for (const double v_ref : {1.0, 0.7, 3.0, 768.0}) {
      SCOPED_TRACE(testing::Message() << "bits " << bits << ", V_ref " << v_ref);
      const ElectricalAdc adc(cfg_bits(bits, v_ref));
      const std::vector<double> in = span_rule::inputs((1 << (bits - 1)) - 1, v_ref, rng);
      std::vector<double> out(in.size());
      adc.sample_to_voltage(in, out);
      std::size_t bad = first_mismatch(adc, in, 0, out);
      ASSERT_EQ(bad, out.size()) << "input " << in[bad] << " read " << out[bad];
      std::vector<double> inplace = in;
      adc.sample_to_voltage(inplace, inplace);
      bad = first_mismatch(adc, in, 0, inplace);
      ASSERT_EQ(bad, inplace.size()) << "in place, input " << in[bad];
      for (std::size_t off = 0; off < 4; ++off) {
        for (const std::size_t len : span_rule::lengths()) {
          std::vector<double> part(len, -1.0);
          adc.sample_to_voltage(std::span<const double>(in).subspan(off, len), part);
          bad = first_mismatch(adc, in, off, part);
          ASSERT_EQ(bad, part.size()) << "offset " << off << ", length " << len << ", input "
                                      << in[off + bad];
        }
      }
    }
  }
  const ElectricalAdc adc(cfg_bits(8));
  std::vector<double> out(2);
  EXPECT_THROW(adc.sample_to_voltage(std::vector<double>(3, 0.0), out), PreconditionError);
}

TEST(ElectricalAdc, PowerLinearInBits) {
  const ElectricalAdc adc4(cfg_bits(4));
  const ElectricalAdc adc8(cfg_bits(8));
  EXPECT_NEAR(adc8.power() / adc4.power(), 2.0, 1e-12);
}

TEST(ElectricalAdc, CalibratedAbsolutePower) {
  // DESIGN.md §5: per-ADC 16.6 mW at 4-bit, 33.2 mW at 8-bit.
  EXPECT_NEAR(ElectricalAdc(cfg_bits(4)).power().milliwatts(), 16.6, 0.1);
  EXPECT_NEAR(ElectricalAdc(cfg_bits(8)).power().milliwatts(), 33.2, 0.2);
}

TEST(ElectricalAdc, EnergyPerConversion) {
  const ElectricalAdc adc(cfg_bits(8));
  EXPECT_NEAR(adc.energy_per_conversion().picojoules(),
              adc.power().watts() / 5e9 * 1e12, 1e-9);
}

TEST(ElectricalAdc, PowerScalesWithRate) {
  ElectricalAdcConfig fast = cfg_bits(8);
  fast.sample_rate = units::gigahertz(10.0);
  EXPECT_NEAR(ElectricalAdc(fast).power() / ElectricalAdc(cfg_bits(8)).power(), 2.0, 1e-12);
}

TEST(ElectricalAdc, RejectsInvalidConfig) {
  ElectricalAdcConfig bad = cfg_bits(8);
  bad.v_ref = -1.0;
  EXPECT_THROW(ElectricalAdc{bad}, PreconditionError);
  bad = cfg_bits(8);
  bad.power_per_bit_watts = 0.0;
  EXPECT_THROW(ElectricalAdc{bad}, PreconditionError);
}

}  // namespace
