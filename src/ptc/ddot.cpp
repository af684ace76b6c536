#include "ptc/ddot.hpp"

#include "common/require.hpp"

namespace pdac::ptc {

namespace {

void resize_field(photonics::WdmField& f, std::size_t channels) {
  if (f.channels() != channels) f.amplitudes().resize(channels);
}

}  // namespace

Ddot::Ddot()
    : ps_(photonics::PhaseShifter::minus_90()),
      dc_(photonics::DirectionalCoupler::fifty_fifty()),
      pd_plus_(),
      pd_minus_() {}

Ddot::Ddot(photonics::PhaseShifter ps, photonics::DirectionalCoupler dc,
           photonics::Photodetector pd_plus, photonics::Photodetector pd_minus)
    : ps_(ps), dc_(dc), pd_plus_(pd_plus), pd_minus_(pd_minus) {}

void Ddot::couple(const photonics::DualRail& rails, DdotScratch& scratch) const {
  PDAC_REQUIRE(rails.upper.channels() == rails.lower.channels(),
               "Ddot: rails must carry the same channel count");
  const std::size_t n = rails.upper.channels();
  resize_field(scratch.shifted, n);
  resize_field(scratch.coupled.upper, n);
  resize_field(scratch.coupled.lower, n);
  // The per-channel device evaluations of PhaseShifter::apply and
  // DirectionalCoupler::couple on whole fields: the upper rail passes
  // through untouched, so coupling directly against the source upper
  // amplitudes skips only a verbatim copy.
  auto& sh = scratch.shifted.amplitudes();
  auto& cu = scratch.coupled.upper.amplitudes();
  auto& cl = scratch.coupled.lower.amplitudes();
  const auto& up = rails.upper.amplitudes();
  const auto& lo = rails.lower.amplitudes();
  for (std::size_t ch = 0; ch < n; ++ch) sh[ch] = ps_.apply(lo[ch]);
  for (std::size_t ch = 0; ch < n; ++ch) {
    const auto [u, l] = dc_.couple(up[ch], sh[ch]);
    cu[ch] = u;
    cl[ch] = l;
  }
}

DdotReading Ddot::compute(const photonics::DualRail& rails) const {
  DdotScratch scratch;
  return compute(rails, scratch);
}

DdotReading Ddot::compute(const photonics::DualRail& rails, DdotScratch& scratch) const {
  couple(rails, scratch);
  return DdotReading{pd_plus_.detect(scratch.coupled.upper),
                     pd_minus_.detect(scratch.coupled.lower)};
}

DdotReading Ddot::compute(std::span<const double> x, std::span<const double> y) const {
  DdotScratch scratch;
  return compute(x, y, scratch);
}

DdotReading Ddot::compute(std::span<const double> x, std::span<const double> y,
                          DdotScratch& scratch) const {
  PDAC_REQUIRE(x.size() == y.size(), "Ddot: operand length mismatch");
  resize_field(scratch.rails.upper, x.size());
  resize_field(scratch.rails.lower, y.size());
  auto& up = scratch.rails.upper.amplitudes();
  auto& lo = scratch.rails.lower.amplitudes();
  for (std::size_t i = 0; i < x.size(); ++i) {
    up[i] = photonics::Complex{x[i], 0.0};
    lo[i] = photonics::Complex{y[i], 0.0};
  }
  return compute(scratch.rails, scratch);
}

DdotReading Ddot::compute_noisy(const photonics::DualRail& rails, Rng& rng,
                                DdotScratch& scratch) const {
  couple(rails, scratch);
  return DdotReading{pd_plus_.detect_noisy(scratch.coupled.upper, rng),
                     pd_minus_.detect_noisy(scratch.coupled.lower, rng)};
}

}  // namespace pdac::ptc
