// Tests for the ABFT checksum guard on the ptc GEMM path: tolerance
// bands, checksum-lane event contract, bit-identity of the guarded data
// path, zero false positives on clean hardware, and detection of
// corrupted prepared operands (the PhotonicBackend cache-repair story).
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "converters/electrical_adc.hpp"
#include "nn/backend.hpp"
#include "ptc/abft.hpp"
#include "ptc/gemm_engine.hpp"

namespace {

using namespace pdac;
using namespace pdac::ptc;

void expect_events_equal(const EventCounter& a, const EventCounter& b) {
  EXPECT_EQ(a.modulation_events, b.modulation_events);
  EXPECT_EQ(a.detection_events, b.detection_events);
  EXPECT_EQ(a.adc_events, b.adc_events);
  EXPECT_EQ(a.ddot_ops, b.ddot_ops);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(GuardTolerance, DeterministicBandScalesWithProblemSize) {
  GuardConfig cfg;
  cfg.noise_sigma = 0.0;
  const double base = guard_tolerance(cfg, 64, 8, 64.0);
  EXPECT_GT(base, 0.0);
  // Linear in k, fan+1 and mag.
  EXPECT_DOUBLE_EQ(guard_tolerance(cfg, 128, 8, 64.0), 2.0 * base);
  EXPECT_DOUBLE_EQ(guard_tolerance(cfg, 64, 17, 64.0), 2.0 * base);
  EXPECT_DOUBLE_EQ(guard_tolerance(cfg, 64, 8, 128.0), 2.0 * base);
  // mag below 1 clamps to 1 (absolute floor for near-zero dots).
  EXPECT_DOUBLE_EQ(guard_tolerance(cfg, 64, 8, 0.25), guard_tolerance(cfg, 64, 8, 1.0));
}

TEST(GuardTolerance, NoiseTermAddsInQuadratureFan) {
  // The band is 64·ε·k·(fan+1)·max(mag, 1) plus 8·σ·√(fan+1); the noise
  // half is what a nonzero sigma adds on top of the deterministic half.
  GuardConfig cfg;
  const double deterministic = guard_tolerance(cfg, 64, 8, 64.0);
  EXPECT_EQ(deterministic, 64.0 * DBL_EPSILON * 64.0 * 9.0 * 64.0);
  cfg.noise_sigma = 0.01;
  const double band = guard_tolerance(cfg, 64, 8, 64.0);
  EXPECT_EQ(band, deterministic + 8.0 * 0.01 * std::sqrt(9.0));
}

TEST(GuardTolerance, RejectsNegativeParameters) {
  GuardConfig cfg;
  cfg.noise_sigma = -1.0;
  EXPECT_THROW((void)guard_tolerance(cfg, 8, 8, 1.0), PreconditionError);
}

TEST(CalibrateGuardSigma, DeterministicPathIsExactlyZero) {
  DotEngineConfig dot;  // no ADC readout, no PD noise
  EXPECT_EQ(calibrate_guard_sigma(dot, 256), 0.0);
}

TEST(CalibrateGuardSigma, AdcReadoutContributesQuantizationNoise) {
  DotEngineConfig dot;
  dot.adc_readout = true;
  dot.adc_bits = 8;
  const std::size_t k = 64;
  const double sigma = calibrate_guard_sigma(dot, k);
  // Full scale defaults to k: the ADC's step is k over its 2^7 − 1 = 127
  // codes, noise step/sqrt(12).
  const double step = static_cast<double>(k) / 127.0;
  EXPECT_NEAR(sigma, step / std::sqrt(12.0), 1e-12);
  // More bits, less noise.
  dot.adc_bits = 12;
  EXPECT_LT(calibrate_guard_sigma(dot, k), sigma);
}

TEST(CalibrateGuardSigma, MatchesMeasuredAdcQuantizationNoise) {
  // The band's ADC term against the converter it models: 2 M readouts
  // uniform on ±0.9·fs (fs = k = 768, the auto full scale) through
  // ElectricalAdc::sample_to_voltage, whose RMS error must match
  // calibrate_guard_sigma within 3 % at every width.  An LSB of 2·fs/2^b
  // reads 12.5 % low at 4 bits and 3.4 % low at 6.
  const std::size_t k = 768;
  const double fs = static_cast<double>(k);
  Rng rng(2029);
  std::vector<double> volts(2'000'000);
  for (double& v : volts) v = rng.uniform(-0.9 * fs, 0.9 * fs);
  std::vector<double> read(volts.size());
  for (const int bits : {4, 6, 8}) {
    DotEngineConfig dot;
    dot.adc_readout = true;
    dot.adc_bits = bits;
    converters::ElectricalAdcConfig ac;
    ac.bits = bits;
    ac.v_ref = fs;
    converters::ElectricalAdc(ac).sample_to_voltage(volts, read);
    double sq = 0.0;
    for (std::size_t i = 0; i < volts.size(); ++i) sq += (read[i] - volts[i]) * (read[i] - volts[i]);
    const double rms = std::sqrt(sq / static_cast<double>(volts.size()));
    EXPECT_NEAR(rms / calibrate_guard_sigma(dot, k), 1.0, 0.03) << bits << " bits";
  }
}

TEST(AbftGuard, WorstResidualFoldKeepsNanSticky) {
  // The one worst-residual rule: larger residuals replace the worst with
  // their tolerance, a NaN stays worst while finite residuals follow, and
  // a later NaN brings its own tolerance.
  double worst = 0.0;
  double tol = 0.0;
  fold_worst_residual(2.0, 10.0, worst, tol);
  fold_worst_residual(1.0, 20.0, worst, tol);
  EXPECT_EQ(worst, 2.0);
  EXPECT_EQ(tol, 10.0);
  fold_worst_residual(std::numeric_limits<double>::quiet_NaN(), 30.0, worst, tol);
  fold_worst_residual(5.0, 40.0, worst, tol);
  fold_worst_residual(std::numeric_limits<double>::infinity(), 50.0, worst, tol);
  EXPECT_TRUE(std::isnan(worst));
  EXPECT_EQ(tol, 30.0);
  fold_worst_residual(std::numeric_limits<double>::quiet_NaN(), 60.0, worst, tol);
  EXPECT_TRUE(std::isnan(worst));
  EXPECT_EQ(tol, 60.0);
}

TEST(ChecksumLaneEvents, MatchesDocumentedContract) {
  // One spare A row + one spare B column per tile step: 2k modulations,
  // h+w extra outputs detected/reduced/digitized, zero extra cycles.
  const EventCounter ev = checksum_lane_events(8, 4, 64, 8);
  EXPECT_EQ(ev.modulation_events, 2u * 64u);
  EXPECT_EQ(ev.adc_events, 12u);
  EXPECT_EQ(ev.ddot_ops, 12u * 8u);
  EXPECT_EQ(ev.detection_events, 12u * 8u);
  EXPECT_EQ(ev.macs, 12u * 64u);
  EXPECT_EQ(ev.cycles, 0u);
}

/// verify_tile with one serial reference loop per lane, lane after lane:
/// the verdict the SIMD-lane references must reproduce field for field.
TileCheck scalar_verify_tile(const GuardConfig& cfg, const Tile& tile, std::size_t t,
                             std::span<const double> rsum, std::span<const double> csum,
                             const Matrix& a_golden, std::span<const double> xsum,
                             const Matrix& b_golden, std::size_t b_row0,
                             std::span<const double> ysum) {
  const std::size_t k = a_golden.cols();
  TileCheck check;
  check.tile = t;
  const double mag = static_cast<double>(k);
  const double tol_row = guard_tolerance(cfg, k, tile.cols, mag);
  const double tol_col = guard_tolerance(cfg, k, tile.rows, mag);
  const double band = std::max(1.0, cfg.drift_band);
  const auto excursion = [&check, band](double res, double tol) {
    const double r = std::abs(res);
    if (std::isnan(r) || r > check.worst_residual) {
      check.worst_residual = r;
      check.tolerance = tol;
    }
    if (std::isnan(r) || r > band * tol) {
      check.ok = false;
      return true;
    }
    if (r > tol) check.drift_ratio = std::max(check.drift_ratio, r / tol);
    return false;
  };
  std::size_t bad_rows = 0, bad_cols = 0;
  ErrorSite site;
  double col_delta = 0.0;
  for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
    const auto xr = a_golden.row(i);
    double ref = 0.0;
    for (std::size_t p = 0; p < k; ++p) ref += xr[p] * ysum[p];
    const double res = rsum[i - tile.row0] - ref;
    if (excursion(res, tol_row)) {
      ++bad_rows;
      site.row = i;
      site.delta = res;
    }
  }
  for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
    const auto yr = b_golden.row(j - b_row0);
    double ref = 0.0;
    for (std::size_t p = 0; p < k; ++p) ref += xsum[p] * yr[p];
    const double res = csum[j - tile.col0] - ref;
    if (excursion(res, tol_col)) {
      ++bad_cols;
      site.col = j;
      col_delta = res;
    }
  }
  if (bad_rows == 1 && bad_cols == 1 && std::isfinite(site.delta) && std::isfinite(col_delta) &&
      std::abs(site.delta - col_delta) <= band * (tol_row + tol_col)) {
    check.single_error = site;
  }
  return check;
}

/// Equal bits, or NaN on both sides.
bool same_bits(double a, double b) {
  return std::isnan(a) ? std::isnan(b) : std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(AbftGuard, VerifyTileEqualsScalarReferences) {
  // verify_tile computes its references in SIMD lanes; each must keep its
  // serial chain's bits, so every TileCheck field equals the one-loop-per-
  // lane verdict's.  Tiles of 1–8 × 1–8 at a nonzero corner, reduction
  // lengths 1–800 (with the A stripe sums that feed xsum), drift bands 1
  // and 4, golden B columns as PhotonicGemm passes them (its whole
  // encodings and cached stripe) or as the lane executor does (a decoded
  // tile stripe that differs in its first column, padded rows, and its
  // own sum), over four tile states: clean
  // (reassociation-scale residuals, since the data sums are blocked
  // dots), one corrupted element (the single-error signature), lanes
  // pushed into the drift band, and a NaN.
  SCOPED_TRACE(std::string("isa ") + simd::active_isa());
  constexpr std::size_t kStripe = 8;
  Rng rng(83);
  std::size_t singles = 0, drifting = 0, nans = 0, clean = 0;
  Matrix a_stripes(1, 1);
  a_stripes(0, 0) = 7.0;
  for (const std::size_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 13u, 31u, 64u, 257u, 768u, 800u}) {
    for (std::size_t h = 1; h <= 8; ++h) {
      for (std::size_t w = 1; w <= 8; ++w) {
        const Tile tile{.row0 = 3, .col0 = kStripe, .rows = h, .cols = w};
        Matrix a_golden(tile.row0 + h, k);
        for (double& v : a_golden.data()) v = rng.uniform(-1.0, 1.0);
        if (w == 1) {
          // The A side's stripe checksums (stripe_sums, the fold behind
          // every xsum): stripes of h = 1–8 rows, the last one short when
          // h does not divide 3 + h, each from exact zero in ascending row
          // order — into a buffer the previous shape left holding sums.
          stripe_sums(a_golden, h, a_stripes);
          ASSERT_EQ(a_stripes.rows(), (a_golden.rows() + h - 1) / h);
          ASSERT_EQ(a_stripes.cols(), k);
          for (std::size_t st = 0; st < a_stripes.rows(); ++st) {
            for (std::size_t p = 0; p < k; ++p) {
              double want = 0.0;
              for (std::size_t i = st * h; i < std::min(a_golden.rows(), (st + 1) * h); ++i) {
                want += a_golden(i, p);
              }
              ASSERT_TRUE(same_bits(a_stripes(st, p), want))
                  << "k " << k << " stripe " << h << " row " << st << " at " << p;
            }
          }
        }
        PreparedOperand b;
        b.rows = k;
        b.cols = tile.col0 + w;
        b.encoded = Matrix(b.cols, k);
        for (double& v : b.encoded.data()) v = rng.uniform(-1.0, 1.0);
        b.checksum_stripe = kStripe;
        b.checksum = Matrix(2, k);
        for (std::size_t j = 0; j < b.cols; ++j) {
          for (std::size_t p = 0; p < k; ++p) b.checksum(j / kStripe, p) += b.encoded(j, p);
        }
        std::vector<double> xsum(k, 0.0);
        for (std::size_t i = tile.row0; i < tile.row0 + h; ++i) {
          for (std::size_t p = 0; p < k; ++p) xsum[p] += a_golden(i, p);
        }
        std::vector<double> rsum(h, 0.0), csum(w, 0.0);
        for (std::size_t i = 0; i < h; ++i) {
          for (std::size_t j = 0; j < w; ++j) {
            const double dot = simd::dot(a_golden.row(tile.row0 + i).data(),
                                         b.encoded.row(tile.col0 + j).data(), k);
            rsum[i] += dot;
            csum[j] += dot;
          }
        }
        // A decoded tile stripe equal to `encoded` except its first tile
        // column, with padded rows, and its stripe sum.
        Matrix stripe(w, k + 3);
        std::vector<double> stripe_sum(k, 0.0);
        for (std::size_t j = 0; j < w; ++j) {
          for (std::size_t p = 0; p < k; ++p) {
            stripe(j, p) = b.encoded(tile.col0 + j, p) * (j == 0 ? 1.001 : 1.0);
            stripe_sum[p] += stripe(j, p);
          }
        }

        for (int state = 0; state < 4; ++state) {
          std::vector<double> r = rsum, c = csum;
          const double tol_row = guard_tolerance(GuardConfig{}, k, w, static_cast<double>(k));
          const double tol_col = guard_tolerance(GuardConfig{}, k, h, static_cast<double>(k));
          if (state == 1) {
            r[h / 2] += 0.25;
            c[w / 2] += 0.25;
          } else if (state == 2) {
            r[0] += 2.5 * tol_row;
            c[w - 1] -= 3.0 * tol_col;
          } else if (state == 3) {
            c[w - 1] = std::numeric_limits<double>::quiet_NaN();
          }
          for (const double band : {1.0, 4.0}) {
            for (const bool staged : {false, true}) {
              const Matrix& golden = staged ? stripe : b.encoded;
              const std::size_t row0 = staged ? tile.col0 : 0;
              const std::span<const double> ysum =
                  staged ? std::span<const double>(stripe_sum) : b.checksum.row(1);
              GuardConfig cfg;
              cfg.enabled = true;
              cfg.drift_band = band;
              const TileCheck want =
                  scalar_verify_tile(cfg, tile, 5, r, c, a_golden, xsum, golden, row0, ysum);
              const TileCheck got =
                  verify_tile(cfg, tile, 5, r, c, a_golden, xsum, golden, row0, ysum);
              const std::string where =
                  "k " + std::to_string(k) + " tile " + std::to_string(h) + "x" +
                  std::to_string(w) + " state " + std::to_string(state) + " band " +
                  std::to_string(band) + " staged " + std::to_string(staged);
              EXPECT_EQ(got.tile, want.tile) << where;
              EXPECT_EQ(got.ok, want.ok) << where;
              EXPECT_TRUE(same_bits(got.worst_residual, want.worst_residual))
                  << where << ": " << got.worst_residual << " vs " << want.worst_residual;
              EXPECT_TRUE(same_bits(got.tolerance, want.tolerance)) << where;
              EXPECT_EQ(got.corrected, want.corrected) << where;
              EXPECT_TRUE(same_bits(got.drift_ratio, want.drift_ratio))
                  << where << ": " << got.drift_ratio << " vs " << want.drift_ratio;
              ASSERT_EQ(got.single_error.has_value(), want.single_error.has_value()) << where;
              if (want.single_error) {
                ++singles;
                EXPECT_EQ(got.single_error->row, want.single_error->row) << where;
                EXPECT_EQ(got.single_error->col, want.single_error->col) << where;
                EXPECT_TRUE(same_bits(got.single_error->delta, want.single_error->delta))
                    << where;
              }
              if (want.drift_ratio > 0.0) ++drifting;
              if (std::isnan(want.worst_residual)) ++nans;
              if (want.ok && want.worst_residual > 0.0) ++clean;
            }
          }
        }
      }
    }
  }
  // Every verdict shape was reached.
  EXPECT_GT(singles, 0u);
  EXPECT_GT(drifting, 0u);
  EXPECT_GT(nans, 0u);
  EXPECT_GT(clean, 0u);
}

TEST(AbftGuard, GuardedMultiplyIsBitIdenticalToUnguarded) {
  // The tentpole invariant: enabling the guard must not change a single
  // output bit or a single data-path event — the checksum lanes ride a
  // spare row/column and their charge is reported separately.
  const auto drv = core::make_pdac_driver(8);
  GemmConfig plain;
  plain.array_rows = 8;
  plain.array_cols = 4;
  const PhotonicGemm unguarded(*drv, plain);
  GemmConfig guarded_cfg = plain;
  guarded_cfg.guard.enabled = true;
  const PhotonicGemm guarded(*drv, guarded_cfg);

  Rng rng(7);
  const Matrix a = Matrix::random_gaussian(13, 22, rng);
  const Matrix b = Matrix::random_gaussian(22, 9, rng);
  const GemmResult plain_res = unguarded.multiply(a, b);
  const GemmResult guard_res = guarded.multiply(a, b);

  ASSERT_EQ(plain_res.c.size(), guard_res.c.size());
  for (std::size_t i = 0; i < plain_res.c.size(); ++i) {
    EXPECT_EQ(plain_res.c.data()[i], guard_res.c.data()[i]) << "element " << i;
  }
  expect_events_equal(plain_res.events, guard_res.events);

  EXPECT_FALSE(plain_res.guard.enabled);
  EXPECT_TRUE(guard_res.guard.enabled);
  EXPECT_TRUE(guard_res.guard.clean());
  EXPECT_GT(guard_res.guard.tiles_checked, 0u);
  EXPECT_GT(guard_res.guard.checksum_events.modulation_events, 0u);
  // The clean residual is pure fp reassociation, far inside the band.
  EXPECT_LT(guard_res.guard.worst_residual, guard_res.guard.worst_tolerance);
}

TEST(AbftGuard, GuardedPathBitIdenticalAtAnyThreadCount) {
  const auto drv = core::make_pdac_driver(8);
  GemmConfig base;
  base.array_rows = 8;
  base.array_cols = 8;
  base.guard.enabled = true;
  Rng rng(9);
  const Matrix a = Matrix::random_gaussian(17, 33, rng);
  const Matrix b = Matrix::random_gaussian(33, 19, rng);

  GemmConfig serial_cfg = base;
  serial_cfg.threads = 1;
  const PhotonicGemm serial(*drv, serial_cfg);
  const GemmResult ref = serial.multiply(a, b);
  ASSERT_TRUE(ref.guard.clean());

  for (std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    GemmConfig cfg = base;
    cfg.threads = threads;
    const PhotonicGemm wide(*drv, cfg);
    const GemmResult res = wide.multiply(a, b);
    for (std::size_t i = 0; i < ref.c.size(); ++i) {
      EXPECT_EQ(res.c.data()[i], ref.c.data()[i]) << threads << " threads, element " << i;
    }
    expect_events_equal(res.events, ref.events);
    EXPECT_TRUE(res.guard.clean());
    EXPECT_EQ(res.guard.tiles_checked, ref.guard.tiles_checked);
    EXPECT_DOUBLE_EQ(res.guard.worst_residual, ref.guard.worst_residual);
  }
}

TEST(AbftGuard, PreparedPathMatchesMultiplyBitIdentically) {
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.guard.enabled = true;
  const PhotonicGemm gemm(*drv, cfg);
  Rng rng(11);
  const Matrix a = Matrix::random_gaussian(10, 24, rng);
  const Matrix b = Matrix::random_gaussian(24, 12, rng);

  const GemmResult direct = gemm.multiply(a, b);
  const PreparedOperand pb = gemm.prepare_b(b);
  EXPECT_GT(pb.checksum.size(), 0u);
  EXPECT_EQ(pb.checksum_stripe, cfg.array_cols);
  const GemmResult prepared = gemm.multiply_prepared(a, pb);

  for (std::size_t i = 0; i < direct.c.size(); ++i) {
    EXPECT_EQ(prepared.c.data()[i], direct.c.data()[i]);
  }
  expect_events_equal(prepared.events, direct.events);
  EXPECT_TRUE(prepared.guard.clean());
  EXPECT_EQ(prepared.guard.tiles_checked, direct.guard.tiles_checked);
}

TEST(AbftGuard, GuardedRunRejectsUnguardedOperand) {
  const auto drv = core::make_pdac_driver(8);
  GemmConfig plain;
  const PhotonicGemm unguarded(*drv, plain);
  GemmConfig guarded_cfg;
  guarded_cfg.guard.enabled = true;
  const PhotonicGemm guarded(*drv, guarded_cfg);
  Rng rng(3);
  const Matrix a = Matrix::random_gaussian(4, 8, rng);
  const Matrix b = Matrix::random_gaussian(8, 4, rng);
  // An operand prepared without checksums cannot be verified.
  const PreparedOperand pb = unguarded.prepare_b(b);
  EXPECT_THROW((void)guarded.multiply_prepared(a, pb), PreconditionError);
}

TEST(AbftGuard, ZeroFalsePositivesOverTenThousandCleanTiles) {
  // The acceptance gate: the band must never flag healthy hardware.
  // 8×8 tiles over 80×80 outputs = 100 tiles per product; 101 seeds of
  // varying shape push the verified-tile count past 10k.
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.guard.enabled = true;
  const PhotonicGemm gemm(*drv, cfg);
  std::size_t tiles = 0;
  std::size_t mismatched = 0;
  double worst_margin = 0.0;
  for (std::uint64_t seed = 1; tiles < 10000; ++seed) {
    Rng rng(seed);
    // Ragged shapes included: edge tiles exercise the fan-dependent band.
    const std::size_t m = 73 + (seed % 16);
    const std::size_t n = 73 + ((seed * 5) % 16);
    const std::size_t k = 8 + (seed % 9);
    const Matrix a = Matrix::random_gaussian(m, k, rng);
    const Matrix b = Matrix::random_gaussian(k, n, rng);
    const GemmResult res = gemm.multiply(a, b);
    tiles += res.guard.tiles_checked;
    mismatched += res.guard.mismatched_tiles;
    if (res.guard.worst_tolerance > 0.0) {
      worst_margin = std::max(worst_margin, res.guard.worst_residual / res.guard.worst_tolerance);
    }
  }
  EXPECT_GE(tiles, 10000u);
  EXPECT_EQ(mismatched, 0u);
  // Not merely "no false positive" but comfortably so: the observed
  // clean residual stays well under half the band.
  EXPECT_LT(worst_margin, 0.5);
}

TEST(AbftGuard, NoisyReadoutPathStaysCleanWithCalibratedBand) {
  // With ADC readout on, the digitized tile sums differ from the digital
  // references by real quantization noise; calibrate_guard_sigma must
  // widen the band exactly enough to absorb it.
  const auto drv = core::make_pdac_driver(8);
  GemmConfig cfg;
  cfg.dot.adc_readout = true;
  cfg.dot.adc_bits = 10;
  cfg.guard.enabled = true;
  cfg.guard.noise_sigma = calibrate_guard_sigma(cfg.dot, 48);
  ASSERT_GT(cfg.guard.noise_sigma, 0.0);
  const PhotonicGemm gemm(*drv, cfg);
  std::size_t mismatched = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Matrix a = Matrix::random_gaussian(16, 48, rng);
    const Matrix b = Matrix::random_gaussian(48, 16, rng);
    const GemmResult res = gemm.multiply(a, b);
    mismatched += res.guard.mismatched_tiles;
    EXPECT_GT(res.guard.worst_residual, 0.0);  // quantization is visible…
  }
  EXPECT_EQ(mismatched, 0u);  // …but inside the calibrated band
}

TEST(AbftGuard, CorruptedPreparedColumnIsDetectedAndLocalized) {
  // Corrupt one cached encoded column after prepare.  The row checksum
  // lanes (whose reference stripes were summed at prepare time) flag
  // exactly the tiles whose column range covers the corrupted column.
  const auto drv = core::make_pdac_driver(8);
  Rng rng(21);
  const Matrix a = Matrix::random_gaussian(24, 16, rng);  // 3 row stripes
  const Matrix b = Matrix::random_gaussian(16, 24, rng);  // 3 col stripes
  GemmConfig cfg;
  cfg.array_rows = 8;
  cfg.array_cols = 8;
  cfg.guard.enabled = true;
  const PhotonicGemm gemm(*drv, cfg);

  PreparedOperand pb = gemm.prepare_b(b);
  const std::size_t bad_col = 13;  // column stripe 1
  pb.encoded.row(bad_col)[3] += 0.25;  // one flipped amplitude

  const GemmResult res = gemm.multiply_prepared(a, pb);
  EXPECT_FALSE(res.guard.clean());
  // Tiles are row-major over a 3×3 grid; column stripe 1 owns tile
  // indices {1, 4, 7}, so detection fires at tile 1 and nowhere outside
  // the stripe.
  EXPECT_EQ(res.guard.mismatched_tiles, 3u);
  EXPECT_EQ(res.guard.first_mismatch, 1u);
  // A genuine corruption lands far outside the band, not marginally.
  EXPECT_GT(res.guard.worst_residual, 100.0 * res.guard.worst_tolerance);
}

TEST(AbftGuard, NanInCorruptedOperandIsNeverInBand) {
  // A dead PD can NaN an analog sum; NaN must read as a mismatch (a
  // plain residual > tol comparison would silently pass it) — even under
  // a hysteresis band wide enough to absorb a finite corruption as drift.
  const auto drv = core::make_pdac_driver(8);
  for (const double band : {1.0, 1e12}) {
    SCOPED_TRACE("drift band " + std::to_string(band));
    GemmConfig cfg;
    cfg.guard.enabled = true;
    cfg.guard.drift_band = band;
    const PhotonicGemm gemm(*drv, cfg);
    Rng rng(5);
    const Matrix a = Matrix::random_gaussian(8, 12, rng);
    const Matrix b = Matrix::random_gaussian(12, 8, rng);
    PreparedOperand pb = gemm.prepare_b(b);
    PreparedOperand finite = pb;
    pb.encoded.row(2)[0] = std::numeric_limits<double>::quiet_NaN();
    const GemmResult res = gemm.multiply_prepared(a, pb);
    EXPECT_FALSE(res.guard.clean());
    EXPECT_TRUE(std::isnan(res.guard.worst_residual));

    finite.encoded.row(2)[0] += 0.25;
    const GemmResult drift = gemm.multiply_prepared(a, finite);
    EXPECT_EQ(drift.guard.clean(), band > 1.0);
    EXPECT_EQ(drift.guard.drift_tiles, band > 1.0 ? 1u : 0u);
  }
}

TEST(AbftGuard, PhotonicBackendSurfacesGuardStats) {
  nn::PhotonicBackend unguarded(core::make_pdac_driver(8), ptc::GemmConfig{});
  EXPECT_EQ(unguarded.guard_stats(), nullptr);

  nn::PhotonicBackend backend(core::make_pdac_driver(8), nn::guarded_gemm_config());
  Rng rng(13);
  const Matrix a = Matrix::random_gaussian(9, 16, rng);
  const Matrix b = Matrix::random_gaussian(16, 9, rng);
  (void)backend.matmul(a, b);
  (void)backend.matmul(a, b);
  const nn::GuardStats* stats = backend.guard_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->products, 2u);
  EXPECT_GT(stats->tiles_checked, 0u);
  EXPECT_EQ(stats->mismatched_tiles, 0u);
  EXPECT_EQ(stats->cache_repairs, 0u);
  EXPECT_GT(stats->checksum_events.macs, 0u);
}

TEST(AbftGuard, PhotonicBackendAutoRepairsCorruptedCacheEntry) {
  // On the immutable driver a guarded mismatch can only mean the cached
  // operand's memory was corrupted after insertion; matmul_cached must
  // detect it, drop the entry, re-prepare and return the clean result.
  // The SIMD tier with full optics also caches column energies Σy², which
  // a write behind the API leaves stale: Σxy still carries the corruption,
  // so the guard flags the product and the re-prepare restores both.
  ptc::GemmConfig simd_optics = nn::guarded_gemm_config();
  simd_optics.path = ptc::ExecutionPath::kKernelSimd;
  simd_optics.dot.use_full_optics = true;
  for (const ptc::GemmConfig& cfg : {nn::guarded_gemm_config(), simd_optics}) {
    SCOPED_TRACE(cfg.dot.use_full_optics ? "simd, full optics" : "default config");
    nn::PhotonicBackend backend(core::make_pdac_driver(8), cfg);
    Rng rng(17);
    const Matrix a = Matrix::random_gaussian(8, 16, rng);
    const Matrix b = Matrix::random_gaussian(16, 8, rng);
    const nn::WeightHandle w{42, 1};

    const Matrix clean = backend.matmul_cached(a, b, w);

    // Flip a bit in the cached operand behind the backend's back.
    auto pb = backend.cache().lookup(w.id, w.version);
    ASSERT_NE(pb, nullptr);
    const_cast<ptc::PreparedOperand*>(pb.get())->encoded.row(4)[2] += 0.5;
    const auto energy_is_fresh = [](const ptc::PreparedOperand& op, std::size_t j) {
      return op.energy[j] == simd::dot_self(op.encoded.row(j).data(), op.rows);
    };
    if (cfg.dot.use_full_optics) {
      ASSERT_EQ(pb->energy.size(), pb->cols);
      EXPECT_FALSE(energy_is_fresh(*pb, 4));  // still the prepared column's Σy²
    } else {
      EXPECT_TRUE(pb->energy.empty());
    }

    const Matrix repaired = backend.matmul_cached(a, b, w);
    const nn::GuardStats* stats = backend.guard_stats();
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->cache_repairs, 1u);
    EXPECT_GT(stats->mismatched_tiles, 0u);
    for (std::size_t i = 0; i < clean.size(); ++i) {
      EXPECT_EQ(repaired.data()[i], clean.data()[i]) << "element " << i;
    }
    if (cfg.dot.use_full_optics) {
      const auto fresh = backend.cache().lookup(w.id, w.version);
      ASSERT_NE(fresh, nullptr);
      EXPECT_TRUE(energy_is_fresh(*fresh, 4));
    }
    // The repaired entry serves the next product cleanly with no new repair.
    const Matrix again = backend.matmul_cached(a, b, w);
    EXPECT_EQ(backend.guard_stats()->cache_repairs, 1u);
    for (std::size_t i = 0; i < clean.size(); ++i) EXPECT_EQ(again.data()[i], clean.data()[i]);
  }
}

}  // namespace
