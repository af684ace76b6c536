// Unit tests for the microring resonator model (WDM mux/demux element).
#include <gtest/gtest.h>

#include <cmath>

#include "common/require.hpp"
#include "photonics/microring.hpp"

namespace {

using namespace pdac;
using namespace pdac::photonics;

MicroringConfig ring_at(double ch, double hwhm = 0.05) {
  MicroringConfig cfg;
  cfg.resonance_channel = ch;
  cfg.hwhm_channels = hwhm;
  return cfg;
}

TEST(Microring, OnResonanceDropsFully) {
  const Microring mrr(ring_at(1.0));
  EXPECT_DOUBLE_EQ(mrr.drop_fraction(1.0), 1.0);
}

TEST(Microring, HalfMaxAtHwhm) {
  const Microring mrr(ring_at(2.0, 0.1));
  EXPECT_NEAR(mrr.drop_fraction(2.1), 0.5, 1e-12);
  EXPECT_NEAR(mrr.drop_fraction(1.9), 0.5, 1e-12);
}

TEST(Microring, FarDetunedPassesThrough) {
  const Microring mrr(ring_at(0.0));
  EXPECT_LT(mrr.drop_fraction(1.0), 0.01);  // one full channel away
}

TEST(Microring, RouteConservesEnergyPerChannel) {
  const Microring mrr(ring_at(1.0));
  WdmField in(3);
  in.set_amplitude(0, Complex{0.8, 0.0});
  in.set_amplitude(1, Complex{0.0, 0.6});
  in.set_amplitude(2, Complex{0.5, 0.5});
  const MrrPorts ports = mrr.route(in);
  for (std::size_t ch = 0; ch < 3; ++ch) {
    const double total = ports.through.intensity(ch) + ports.drop.intensity(ch);
    EXPECT_NEAR(total, in.intensity(ch), 1e-12) << "channel " << ch;
  }
}

TEST(Microring, RouteSeparatesResonantChannel) {
  const Microring mrr(ring_at(1.0));
  WdmField in(2);
  in.set_amplitude(0, Complex{1.0, 0.0});
  in.set_amplitude(1, Complex{1.0, 0.0});
  const MrrPorts ports = mrr.route(in);
  EXPECT_GT(ports.drop.intensity(1), 0.99 * in.intensity(1));   // captured
  EXPECT_GT(ports.through.intensity(0), 0.99 * in.intensity(0)); // passed
}

TEST(Microring, TuneToMovesResonance) {
  Microring mrr(ring_at(0.0));
  mrr.tune_to(3.0);
  EXPECT_DOUBLE_EQ(mrr.resonance(), 3.0);
  EXPECT_DOUBLE_EQ(mrr.drop_fraction(3.0), 1.0);
  EXPECT_LT(mrr.drop_fraction(0.0), 0.001);
}

TEST(Microring, AddToBusInjectsResonantChannel) {
  const Microring mrr(ring_at(0.0));
  WdmField bus(2);
  WdmField add(2);
  add.set_amplitude(0, Complex{0.9, 0.0});
  add.set_amplitude(1, Complex{0.9, 0.0});
  const WdmField out = mrr.add_to_bus(bus, add);
  EXPECT_NEAR(out.amplitude(0).real(), 0.9, 1e-12);   // injected on resonance
  EXPECT_LT(std::abs(out.amplitude(1)), 0.1);          // rejected off resonance
}

TEST(Microring, AddToBusAttenuatesResonantThroughLight) {
  const Microring mrr(ring_at(0.0));
  WdmField bus(1);
  bus.set_amplitude(0, Complex{1.0, 0.0});
  const WdmField out = mrr.add_to_bus(bus, WdmField(1));
  // On-resonance bus light is pulled off the bus by the ring.
  EXPECT_NEAR(std::abs(out.amplitude(0)), 0.0, 1e-12);
}

TEST(Microring, TuningPowerProportionalToShift) {
  MicroringConfig cfg = ring_at(2.5);
  cfg.heater_power_per_channel_shift = units::milliwatts(0.5);
  const Microring mrr(cfg);
  EXPECT_NEAR(mrr.tuning_power(2.0).milliwatts(), 0.25, 1e-12);
  EXPECT_NEAR(mrr.tuning_power(2.5).milliwatts(), 0.0, 1e-12);
  EXPECT_NEAR(mrr.tuning_power(4.5).milliwatts(), 1.0, 1e-12);
}

TEST(Microring, RejectsInvalidConfig) {
  MicroringConfig bad;
  bad.hwhm_channels = 0.0;
  EXPECT_THROW(Microring{bad}, PreconditionError);
}

TEST(Microring, AddToBusRejectsChannelMismatch) {
  const Microring mrr(ring_at(0.0));
  EXPECT_THROW(mrr.add_to_bus(WdmField(2), WdmField(3)), PreconditionError);
}

}  // namespace
