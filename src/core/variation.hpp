// variation.hpp — Monte-Carlo robustness analysis of the P-DAC under
// fabrication/runtime variation.
//
// The paper's error analysis assumes ideal components.  A real P-DAC
// adds device variation on top of the 8.5 % approximation bound:
//   * TIA gain mismatch      — each binary-weighted gain off by N(0, σ_g)
//     relative error (process variation in the feedback network),
//   * bias/reference drift   — the segment bias voltage off by N(0, σ_b)
//     radians of equivalent phase,
//   * MZM splitting imbalance — the Eq. 3 k factor drawn from N(0, σ_k),
//   * Vπ drift               — thermal drift scaling every drive phase by
//     (1 + N(0, σ_v)).
// This module samples P-DAC instances, evaluates the worst-case and mean
// encode error over the full code space for each, and reports the
// distribution plus parametric yield against an error budget.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/fault_hook.hpp"
#include "core/pdac.hpp"
#include "core/tia_weights.hpp"
#include "photonics/mzm.hpp"

namespace pdac::core {

struct VariationConfig {
  double tia_gain_sigma{0.0};      ///< relative σ per TIA weight
  double bias_sigma{0.0};          ///< absolute σ on each bank bias [rad]
  double mzm_imbalance_sigma{0.0}; ///< σ of the MZM splitting imbalance k
  double vpi_drift_sigma{0.0};     ///< relative σ on the drive-phase scale
  std::uint64_t seed{1};
};

/// Per-instance outcome of one Monte-Carlo draw.
struct VariationSample {
  /// Max relative encode error over all codes, with the denominator
  /// floored at 5 % of full scale (matching sweep_encode_error) so that
  /// additive drift on near-zero codes does not read as unbounded error.
  double worst_error{};
  double mean_abs_error{};  ///< mean |encode − ideal| over all codes
};

struct VariationReport {
  std::vector<VariationSample> samples;
  stats::Running worst_error;
  stats::Running mean_abs_error;

  /// Fraction of sampled devices whose worst-case error stays within
  /// `error_budget` (parametric yield).
  [[nodiscard]] double yield(double error_budget) const;
  /// p-quantile of the worst-case error across devices (q in [0, 1]).
  [[nodiscard]] double worst_error_quantile(double q) const;
};

/// One fabricated-instance model: the nominal program with Gaussian
/// perturbations applied to every TIA weight, every bank bias, the MZM
/// imbalance and the drive-phase scale.  Exposed publicly so the
/// trimming routine (trimming.hpp) can calibrate it the way production
/// test would: by observing encode_code() only.
class PerturbedPdacModel {
 public:
  PerturbedPdacModel(const PdacConfig& cfg, const VariationConfig& var, Rng& rng);

  /// The observable: E_out/E_in for a code through the perturbed device.
  [[nodiscard]] double encode_code(std::int32_t code) const;

  /// Worst floored-relative encode error over the full code space.
  [[nodiscard]] double worst_error() const;
  /// Mean |encode − ideal| over the full code space.
  [[nodiscard]] double mean_abs_error() const;

  /// Trim interface: adjust a bank's weights/bias by the given deltas
  /// (what a per-bank gain-trim DAC would do in hardware).
  void apply_correction(Segment seg, const std::vector<double>& delta_weights,
                        double delta_bias);

  /// Runtime-fault overlay (fault_hook.hpp).  The default hook is the
  /// identity; encode_code() consults it on every evaluation, so the
  /// fault injector can impose/clear faults without forking the model.
  void set_fault_hook(const PdacFaultHook& hook);
  [[nodiscard]] const PdacFaultHook& fault_hook() const { return fault_hook_; }

  /// State stamp: the constructor, apply_correction and set_fault_hook
  /// each take a fresh one from one process-wide counter, and a copy
  /// carries its source's, so two models with equal stamps encode every
  /// code to the same bits (faults::LaneEncodeTable refreshes only the
  /// lanes whose stamp moved).
  [[nodiscard]] std::uint64_t stamp() const { return stamp_; }

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] const SegmentedTiaProgram& nominal_program() const {
    return nominal_program_;
  }
  [[nodiscard]] const TiaWeightBank& bank(Segment seg) const;

 private:
  [[nodiscard]] TiaWeightBank& bank_mutable(Segment seg);

  SegmentedTiaProgram nominal_program_;
  std::array<TiaWeightBank, 3> banks_;  ///< negative, middle, positive
  photonics::Mzm mzm_;
  PdacFaultHook fault_hook_{};
  double phase_scale_{1.0};
  int bits_;
  converters::Quantizer quant_;
  std::uint64_t stamp_;
};

/// Draw `trials` perturbed P-DAC instances and characterize each.
VariationReport monte_carlo_pdac(const PdacConfig& nominal, const VariationConfig& var,
                                 int trials);

/// Sign-magnitude-encoded counterpart of PerturbedPdacModel (see
/// SignMagnitudeTiaProgram): nominal behaviour is identical, but gain
/// mismatch is not amplified by two's-complement bit cancellation.
class PerturbedSignMagnitudeModel {
 public:
  PerturbedSignMagnitudeModel(const PdacConfig& cfg, const VariationConfig& var, Rng& rng);

  [[nodiscard]] double encode_code(std::int32_t code) const;
  [[nodiscard]] double worst_error() const;
  [[nodiscard]] double mean_abs_error() const;
  [[nodiscard]] int bits() const { return bits_; }

 private:
  SignMagnitudeTiaProgram program_;
  photonics::Mzm mzm_;
  double phase_scale_{1.0};
  int bits_;
  converters::Quantizer quant_;
};

/// Monte-Carlo characterization of the sign-magnitude variant — the
/// encoding ablation companion of monte_carlo_pdac.
VariationReport monte_carlo_sign_magnitude(const PdacConfig& nominal,
                                           const VariationConfig& var, int trials);

}  // namespace pdac::core
