// ddot.hpp — Dynamically-operated full-range Dot-product unit
// (Lightening-Transformer's DDot, paper §II-A3 and Eq. 6).
//
// Optical datapath for operand rails carrying x_i and y_i on channel i:
//
//   y rail → −90° phase shifter → e^{-jπ/2}·y_i = −j·y_i
//   (x, −j·y) → 50:50 directional coupler →
//       upper = (x_i + y_i)/√2,   lower = j·(x_i − y_i)/√2
//   balanced photodetectors integrate over all WDM channels:
//       I⁺ = Σ_i (x_i + y_i)²/4,  I⁻ = Σ_i (x_i − y_i)²/4
//   I⁺ − I⁻ = Σ_i x_i·y_i         (Eq. 6, exactly)
//
// The PS and DC are fully passive, so the dot product itself consumes no
// modulation energy — the paper's key observation.  Energy is charged at
// the modulators (DAC vs P-DAC) and at detection/ADC, which the event
// counter records.
#pragma once

#include <span>

#include "photonics/directional_coupler.hpp"
#include "photonics/optical_field.hpp"
#include "photonics/phase_shifter.hpp"
#include "photonics/photodetector.hpp"

namespace pdac::ptc {

/// Result of one DDot detection: the two photocurrents and their
/// difference (the inner product).
struct DdotReading {
  double i_plus{};   ///< Σ (x_i + y_i)² / 4
  double i_minus{};  ///< Σ (x_i − y_i)² / 4
  [[nodiscard]] double value() const { return i_plus - i_minus; }
};

/// Reusable staging buffers for the allocation-free compute overloads.
/// The fields are resized on first use and reused across calls, so a tile
/// loop that keeps one scratch per worker performs no per-dot allocation.
struct DdotScratch {
  photonics::DualRail rails;    ///< operand staging for the span entries and chunk loops
  photonics::WdmField shifted;  ///< y rail after the phase shifter
  photonics::DualRail coupled;  ///< both rails after the coupler
};

class Ddot {
 public:
  Ddot();
  /// Construct with explicit devices (e.g. noisy photodetectors or an
  /// imbalanced coupler for robustness studies).
  Ddot(photonics::PhaseShifter ps, photonics::DirectionalCoupler dc,
       photonics::Photodetector pd_plus, photonics::Photodetector pd_minus);

  /// Run the optical datapath on already-modulated operand rails.  Every
  /// overload stages the rails through one per-channel device pass
  /// (phase shifter, then coupler) into a scratch, so they all agree bit
  /// for bit; this one uses a local scratch.
  [[nodiscard]] DdotReading compute(const photonics::DualRail& rails) const;
  /// Same datapath staged through caller scratch: no allocation per call.
  [[nodiscard]] DdotReading compute(const photonics::DualRail& rails,
                                    DdotScratch& scratch) const;

  /// Convenience: build rails from real per-channel amplitudes (ideal
  /// modulators) and compute.  Spans must have equal length ≤ channels.
  [[nodiscard]] DdotReading compute(std::span<const double> x,
                                    std::span<const double> y) const;
  /// Same, staged through caller scratch (no allocation per dot).
  [[nodiscard]] DdotReading compute(std::span<const double> x, std::span<const double> y,
                                    DdotScratch& scratch) const;

  /// Noisy detection variant drawing from `rng` (plus-side detector
  /// first), staged through caller scratch like compute().
  [[nodiscard]] DdotReading compute_noisy(const photonics::DualRail& rails, Rng& rng,
                                          DdotScratch& scratch) const;

  /// Closed-form transfer accessors: the fused kernel (kernel.hpp)
  /// snapshots the effective real-valued transfer from these devices.
  [[nodiscard]] const photonics::PhaseShifter& phase_shifter() const { return ps_; }
  [[nodiscard]] const photonics::DirectionalCoupler& coupler() const { return dc_; }
  [[nodiscard]] const photonics::Photodetector& pd_plus() const { return pd_plus_; }
  [[nodiscard]] const photonics::Photodetector& pd_minus() const { return pd_minus_; }

 private:
  /// Phase-shift the lower rail and couple both into scratch.coupled.
  void couple(const photonics::DualRail& rails, DdotScratch& scratch) const;

  photonics::PhaseShifter ps_;
  photonics::DirectionalCoupler dc_;
  photonics::Photodetector pd_plus_;
  photonics::Photodetector pd_minus_;
};

}  // namespace pdac::ptc
