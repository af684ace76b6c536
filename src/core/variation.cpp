#include "core/variation.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/math_utils.hpp"
#include "common/require.hpp"

namespace pdac::core {

namespace {

/// PerturbedPdacModel's stamp source: every draw is a value no model
/// state held before.
std::uint64_t fresh_stamp() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

}  // namespace

PerturbedPdacModel::PerturbedPdacModel(const PdacConfig& cfg, const VariationConfig& var,
                                       Rng& rng)
    : nominal_program_(PiecewiseLinearArccos::with_breakpoint(cfg.breakpoint), cfg.bits),
      mzm_([&] {
        photonics::MzmConfig m = cfg.mzm;
        if (var.mzm_imbalance_sigma > 0.0) {
          // Resample until inside the physical (−1, 1) range.
          double k;
          do {
            k = m.imbalance_k + rng.gaussian(0.0, var.mzm_imbalance_sigma);
          } while (k <= -0.99 || k >= 0.99);
          m.imbalance_k = k;
        }
        return photonics::Mzm(m);
      }()),
      bits_(cfg.bits),
      quant_(cfg.bits),
      stamp_(fresh_stamp()) {
  const Segment order[3] = {Segment::kNegativeOuter, Segment::kMiddle,
                            Segment::kPositiveOuter};
  for (int i = 0; i < 3; ++i) {
    banks_[i] = nominal_program_.bank(order[i]);
    for (auto& w : banks_[i].weights) {
      w *= 1.0 + rng.gaussian(0.0, var.tia_gain_sigma);
    }
    banks_[i].bias += rng.gaussian(0.0, var.bias_sigma);
  }
  phase_scale_ = 1.0 + rng.gaussian(0.0, var.vpi_drift_sigma);
}

const TiaWeightBank& PerturbedPdacModel::bank(Segment seg) const {
  switch (seg) {
    case Segment::kNegativeOuter: return banks_[0];
    case Segment::kMiddle: return banks_[1];
    case Segment::kPositiveOuter: break;
  }
  return banks_[2];
}

TiaWeightBank& PerturbedPdacModel::bank_mutable(Segment seg) {
  switch (seg) {
    case Segment::kNegativeOuter: return banks_[0];
    case Segment::kMiddle: return banks_[1];
    case Segment::kPositiveOuter: break;
  }
  return banks_[2];
}

double PerturbedPdacModel::encode_code(std::int32_t code) const {
  // A stuck MRR modulator ignores the drive entirely: the lane emits the
  // pinned amplitude whatever the code (fault_hook.hpp).
  if (fault_hook_.stuck_output.has_value()) return *fault_hook_.stuck_output;
  const TiaWeightBank& b = bank(nominal_program_.select(code));
  const auto pattern = static_cast<std::uint32_t>(code) & ((1u << bits_) - 1u);
  // The bias is the reference voltage, not PD-derived, so PD faults touch
  // only the per-bit terms.  A healthy hook multiplies by exactly 1.0, so
  // this is bit-identical to the hook-free evaluation.
  double phase = b.bias;
  for (int i = 0; i < bits_; ++i) {
    const std::uint32_t bit = 1u << i;
    if ((pattern & bit) == 0u || (fault_hook_.dead_pd_bits & bit) != 0u) continue;
    phase += fault_hook_.pd_responsivity_scale * b.weights[static_cast<std::size_t>(i)];
  }
  return fault_hook_.carrier_scale *
         mzm_.modulate_pushpull(photonics::Complex{1.0, 0.0}, phase * phase_scale_).real();
}

double PerturbedPdacModel::worst_error() const {
  double worst = 0.0;
  for (std::int32_t c = -quant_.max_code(); c <= quant_.max_code(); ++c) {
    if (c == 0) continue;
    // Same 5 %-of-full-scale floor as sweep_encode_error: an additive
    // bias drift would otherwise register as unbounded *relative* error
    // on near-zero codes and mask the mid-range behaviour.
    worst = std::max(worst,
                     math::relative_error(encode_code(c), quant_.decode(c), 5e-2));
  }
  return worst;
}

double PerturbedPdacModel::mean_abs_error() const {
  stats::Running abs_err;
  for (std::int32_t c = -quant_.max_code(); c <= quant_.max_code(); ++c) {
    abs_err.add(std::abs(encode_code(c) - quant_.decode(c)));
  }
  return abs_err.mean();
}

void PerturbedPdacModel::apply_correction(Segment seg,
                                          const std::vector<double>& delta_weights,
                                          double delta_bias) {
  TiaWeightBank& b = bank_mutable(seg);
  PDAC_REQUIRE(delta_weights.size() == b.weights.size(),
               "apply_correction: weight count mismatch");
  for (std::size_t i = 0; i < b.weights.size(); ++i) b.weights[i] += delta_weights[i];
  b.bias += delta_bias;
  stamp_ = fresh_stamp();
}

void PerturbedPdacModel::set_fault_hook(const PdacFaultHook& hook) {
  fault_hook_ = hook;
  stamp_ = fresh_stamp();
}

double VariationReport::yield(double error_budget) const {
  if (samples.empty()) return 0.0;
  std::size_t ok = 0;
  for (const auto& s : samples) {
    if (s.worst_error <= error_budget) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(samples.size());
}

double VariationReport::worst_error_quantile(double q) const {
  PDAC_REQUIRE(q >= 0.0 && q <= 1.0, "worst_error_quantile: q in [0, 1]");
  PDAC_REQUIRE(!samples.empty(), "worst_error_quantile: no samples");
  std::vector<double> xs;
  xs.reserve(samples.size());
  for (const auto& s : samples) xs.push_back(s.worst_error);
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

PerturbedSignMagnitudeModel::PerturbedSignMagnitudeModel(const PdacConfig& cfg,
                                                         const VariationConfig& var,
                                                         Rng& rng)
    : program_(PiecewiseLinearArccos::with_breakpoint(cfg.breakpoint), cfg.bits),
      mzm_([&] {
        photonics::MzmConfig m = cfg.mzm;
        if (var.mzm_imbalance_sigma > 0.0) {
          double k;
          do {
            k = m.imbalance_k + rng.gaussian(0.0, var.mzm_imbalance_sigma);
          } while (k <= -0.99 || k >= 0.99);
          m.imbalance_k = k;
        }
        return photonics::Mzm(m);
      }()),
      bits_(cfg.bits),
      quant_(cfg.bits) {
  for (int outer = 0; outer < 2; ++outer) {
    for (int negative = 0; negative < 2; ++negative) {
      auto& bank = program_.bank_mutable(outer != 0, negative != 0);
      for (auto& w : bank.weights) w *= 1.0 + rng.gaussian(0.0, var.tia_gain_sigma);
      bank.bias += rng.gaussian(0.0, var.bias_sigma);
    }
  }
  phase_scale_ = 1.0 + rng.gaussian(0.0, var.vpi_drift_sigma);
}

double PerturbedSignMagnitudeModel::encode_code(std::int32_t code) const {
  return mzm_
      .modulate_pushpull(photonics::Complex{1.0, 0.0},
                         program_.drive_phase(code) * phase_scale_)
      .real();
}

double PerturbedSignMagnitudeModel::worst_error() const {
  double worst = 0.0;
  for (std::int32_t c = -quant_.max_code(); c <= quant_.max_code(); ++c) {
    if (c == 0) continue;
    worst = std::max(worst,
                     math::relative_error(encode_code(c), quant_.decode(c), 5e-2));
  }
  return worst;
}

double PerturbedSignMagnitudeModel::mean_abs_error() const {
  stats::Running abs_err;
  for (std::int32_t c = -quant_.max_code(); c <= quant_.max_code(); ++c) {
    abs_err.add(std::abs(encode_code(c) - quant_.decode(c)));
  }
  return abs_err.mean();
}

VariationReport monte_carlo_sign_magnitude(const PdacConfig& nominal,
                                           const VariationConfig& var, int trials) {
  PDAC_REQUIRE(trials >= 1, "monte_carlo_sign_magnitude: at least one trial");
  Rng rng(var.seed);
  VariationReport rep;
  rep.samples.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    const PerturbedSignMagnitudeModel device(nominal, var, rng);
    VariationSample s{device.worst_error(), device.mean_abs_error()};
    rep.worst_error.add(s.worst_error);
    rep.mean_abs_error.add(s.mean_abs_error);
    rep.samples.push_back(s);
  }
  return rep;
}

VariationReport monte_carlo_pdac(const PdacConfig& nominal, const VariationConfig& var,
                                 int trials) {
  PDAC_REQUIRE(trials >= 1, "monte_carlo_pdac: at least one trial");
  Rng rng(var.seed);

  VariationReport rep;
  rep.samples.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    const PerturbedPdacModel device(nominal, var, rng);
    VariationSample s;
    s.worst_error = device.worst_error();
    s.mean_abs_error = device.mean_abs_error();
    rep.worst_error.add(s.worst_error);
    rep.mean_abs_error.add(s.mean_abs_error);
    rep.samples.push_back(s);
  }
  return rep;
}

}  // namespace pdac::core
