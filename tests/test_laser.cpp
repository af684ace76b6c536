// Unit tests for the WDM comb laser source.
#include <gtest/gtest.h>

#include "common/require.hpp"
#include "photonics/laser.hpp"

namespace {

using namespace pdac;
using namespace pdac::photonics;

TEST(Laser, EmitsCarriersOnAllChannels) {
  LaserConfig cfg;
  cfg.channels = 4;
  cfg.carrier_amplitude = 2.0;
  const Laser laser(cfg);
  const WdmField f = laser.emit();
  ASSERT_EQ(f.channels(), 4u);
  for (std::size_t ch = 0; ch < 4; ++ch) {
    EXPECT_DOUBLE_EQ(f.amplitude(ch).real(), 2.0);
    EXPECT_DOUBLE_EQ(f.amplitude(ch).imag(), 0.0);
  }
}

TEST(Laser, SubCombLightsOnlyRequestedChannels) {
  LaserConfig cfg;
  cfg.channels = 8;
  const Laser laser(cfg);
  const WdmField f = laser.emit(3);
  for (std::size_t ch = 0; ch < 3; ++ch) EXPECT_GT(f.intensity(ch), 0.0);
  for (std::size_t ch = 3; ch < 8; ++ch) EXPECT_DOUBLE_EQ(f.intensity(ch), 0.0);
}

TEST(Laser, RejectsMoreActiveThanConfigured) {
  const Laser laser(LaserConfig{});
  EXPECT_THROW(laser.emit(9), PreconditionError);
}

TEST(Laser, ElectricalPowerScalesWithChannelsAndEfficiency) {
  LaserConfig cfg;
  cfg.channels = 8;
  cfg.wall_plug_efficiency = 0.2;
  cfg.optical_power_per_channel = units::milliwatts(1.0);
  const Laser laser(cfg);
  EXPECT_NEAR(laser.electrical_power().milliwatts(), 8.0 / 0.2, 1e-12);

  cfg.channels = 16;
  EXPECT_NEAR(Laser(cfg).electrical_power().milliwatts(), 80.0, 1e-12);
}

TEST(Laser, RejectsInvalidConfig) {
  LaserConfig bad;
  bad.channels = 0;
  EXPECT_THROW(Laser{bad}, PreconditionError);

  bad = LaserConfig{};
  bad.carrier_amplitude = 0.0;
  EXPECT_THROW(Laser{bad}, PreconditionError);

  bad = LaserConfig{};
  bad.wall_plug_efficiency = 1.5;
  EXPECT_THROW(Laser{bad}, PreconditionError);
}

TEST(Laser, CarrierIntensityMatchesAmplitude) {
  LaserConfig cfg;
  cfg.carrier_amplitude = 3.0;
  const Laser laser(cfg);
  EXPECT_DOUBLE_EQ(laser.emit().intensity(0), 4.5);  // ½·9
}

}  // namespace
