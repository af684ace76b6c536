// Unit tests for the photodetector + TIA receive chain (paper Eq. 1).
#include <gtest/gtest.h>

#include <cmath>

#include "common/require.hpp"
#include "common/stats.hpp"
#include "photonics/photodetector.hpp"

namespace {

using namespace pdac;
using namespace pdac::photonics;

TEST(Photodetector, CurrentProportionalToIntensity) {
  PhotodetectorConfig cfg;
  cfg.responsivity = 2.0;
  const Photodetector pd(cfg);
  WdmField f(1);
  f.set_amplitude(0, Complex{2.0, 0.0});  // I = 2.0
  EXPECT_DOUBLE_EQ(pd.detect(f), 4.0);
}

TEST(Photodetector, IntegratesAcrossWavelengths) {
  // The property DDot depends on: a single PD sums all WDM channels.
  const Photodetector pd;
  WdmField f(3);
  f.set_amplitude(0, Complex{1.0, 0.0});
  f.set_amplitude(1, Complex{1.0, 0.0});
  f.set_amplitude(2, Complex{1.0, 0.0});
  EXPECT_DOUBLE_EQ(pd.detect(f), 1.5);  // 3 × ½
}

TEST(Photodetector, PhaseInsensitive) {
  const Photodetector pd;
  WdmField a(1), b(1);
  a.set_amplitude(0, Complex{1.0, 0.0});
  b.set_amplitude(0, std::polar(1.0, 1.234));
  EXPECT_NEAR(pd.detect(a), pd.detect(b), 1e-14);
}

TEST(Photodetector, DarkCurrentOffset) {
  PhotodetectorConfig cfg;
  cfg.dark_current = 0.01;
  const Photodetector pd(cfg);
  EXPECT_DOUBLE_EQ(pd.detect(WdmField(2)), 0.01);
}

TEST(Photodetector, NoiseDisabledIsDeterministic) {
  const Photodetector pd;
  Rng rng(1);
  WdmField f(1);
  f.set_amplitude(0, Complex{1.0, 0.0});
  EXPECT_DOUBLE_EQ(pd.detect_noisy(f, rng), pd.detect(f));
}

TEST(Photodetector, ThermalNoiseHasConfiguredSpread) {
  PhotodetectorConfig cfg;
  cfg.noise.enabled = true;
  cfg.noise.thermal_noise_std = 0.05;
  const Photodetector pd(cfg);
  Rng rng(7);
  WdmField f(1);
  f.set_amplitude(0, Complex{1.0, 0.0});
  stats::Running r;
  for (int i = 0; i < 20'000; ++i) r.add(pd.detect_noisy(f, rng));
  EXPECT_NEAR(r.mean(), 0.5, 0.002);
  EXPECT_NEAR(r.stddev(), 0.05, 0.003);
}

TEST(Photodetector, ShotNoiseScalesWithSqrtCurrent) {
  PhotodetectorConfig cfg;
  cfg.noise.enabled = true;
  cfg.noise.shot_noise_scale = 0.1;
  const Photodetector pd(cfg);
  Rng rng(9);
  WdmField dim(1), bright(1);
  dim.set_amplitude(0, Complex{0.5, 0.0});    // I = 0.125
  bright.set_amplitude(0, Complex{2.0, 0.0}); // I = 2.0
  stats::Running rd, rb;
  for (int i = 0; i < 20'000; ++i) {
    rd.add(pd.detect_noisy(dim, rng));
    rb.add(pd.detect_noisy(bright, rng));
  }
  // std ∝ sqrt(I): ratio should be sqrt(2.0/0.125) = 4.
  EXPECT_NEAR(rb.stddev() / rd.stddev(), 4.0, 0.3);
}

TEST(Photodetector, RejectsInvalidConfig) {
  PhotodetectorConfig bad;
  bad.responsivity = 0.0;
  EXPECT_THROW(Photodetector{bad}, PreconditionError);
  bad = PhotodetectorConfig{};
  bad.dark_current = -1.0;
  EXPECT_THROW(Photodetector{bad}, PreconditionError);
}

TEST(Tia, VoltageIsFeedbackTimesCurrent) {
  const Tia tia(1000.0);
  EXPECT_DOUBLE_EQ(tia.amplify(0.002), 2.0);
  EXPECT_DOUBLE_EQ(tia.amplify(-0.001), -1.0);
  EXPECT_DOUBLE_EQ(tia.feedback(), 1000.0);
}

TEST(Tia, SaturatesAtSupplyRails) {
  const Tia tia(1000.0, /*v_sat=*/1.5);
  EXPECT_DOUBLE_EQ(tia.amplify(0.005), 1.5);
  EXPECT_DOUBLE_EQ(tia.amplify(-0.005), -1.5);
  EXPECT_DOUBLE_EQ(tia.amplify(0.001), 1.0);
}

TEST(Tia, ZeroSaturationMeansUnbounded) {
  const Tia tia(1e6, 0.0);
  EXPECT_DOUBLE_EQ(tia.amplify(1.0), 1e6);
}

TEST(Tia, NegativeFeedbackInvertsSign) {
  // Inverting configuration realizes negative TIA weights (the MSB bank).
  const Tia tia(-500.0);
  EXPECT_DOUBLE_EQ(tia.amplify(0.002), -1.0);
}

}  // namespace
