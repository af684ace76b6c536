#include "ptc/dot_engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_utils.hpp"
#include "common/require.hpp"

namespace pdac::ptc {

namespace {

Ddot build_ddot(const DotEngineConfig& cfg) {
  photonics::PhotodetectorConfig pd;
  pd.noise = cfg.pd_noise;
  return Ddot(photonics::PhaseShifter::minus_90(),
              photonics::DirectionalCoupler::fifty_fifty(),
              photonics::Photodetector(pd), photonics::Photodetector(pd));
}

}  // namespace

std::optional<converters::ElectricalAdc> readout_adc(const DotEngineConfig& cfg, std::size_t n) {
  if (!cfg.adc_readout) return std::nullopt;
  converters::ElectricalAdcConfig ac;
  ac.bits = cfg.adc_bits;
  ac.v_ref = cfg.adc_full_scale > 0.0 ? cfg.adc_full_scale
                                      : static_cast<double>(std::max<std::size_t>(n, 1));
  return converters::ElectricalAdc(ac);
}

PhotonicDotEngine::PhotonicDotEngine(const core::ModulatorDriver& driver, DotEngineConfig cfg)
    : driver_(driver),
      cfg_(cfg),
      ddot_(build_ddot(cfg)),
      quant_(driver.bits()) {
  PDAC_REQUIRE(cfg_.wavelengths >= 1, "PhotonicDotEngine: at least one wavelength");
  // Drivers are deterministic functions of the quantized code, so the
  // whole encoder transfer curve fits in a (2^b − 1)-entry table.
  const std::int32_t mc = quant_.max_code();
  encode_lut_.resize(static_cast<std::size_t>(2 * mc + 1));
  for (std::int32_t c = -mc; c <= mc; ++c) {
    encode_lut_[static_cast<std::size_t>(c + mc)] = driver_.encode(quant_.decode(c));
  }
}

Ddot PhotonicDotEngine::make_worker_ddot() const { return build_ddot(cfg_); }

double PhotonicDotEngine::encode(double r) const {
  const std::int32_t code = quant_.encode(math::clamp_unit(r));
  return encode_lut_[static_cast<std::size_t>(code + quant_.max_code())];
}

// The span encoder quantizes through the span rule, then reads the LUT at
// each code.  Quantizer::encode clamps exactly as clamp_unit does, so the
// divisor-1 span encode equals encode(in[i]) bit for bit.
void PhotonicDotEngine::encode_span(std::span<const double> in, std::span<double> out) const {
  PDAC_REQUIRE(in.size() == out.size(), "PhotonicDotEngine: encode_span size mismatch");
  const double* const lut = encode_lut_.data() + quant_.max_code();
  quant_.encode_each(in, 1.0, [&](std::size_t i, std::int32_t code) { out[i] = lut[code]; });
}

template <typename Detect>
double PhotonicDotEngine::reduce(std::span<const double> xe, std::span<const double> ye,
                                 bool full_optics, DdotScratch& scratch,
                                 const std::optional<converters::ElectricalAdc>& adc,
                                 EventCounter* ev, const Detect& detect) const {
  PDAC_REQUIRE(xe.size() == ye.size(), "PhotonicDotEngine: operand length mismatch");
  const std::size_t n = xe.size();
  const std::size_t nl = cfg_.wavelengths;
  double acc = 0.0;
  for (std::size_t base = 0; base < n; base += nl) {
    const std::size_t len = std::min(nl, n - base);
    if (full_optics) {
      // Overwrite every channel of the staged rails (idle ones back to
      // exact +0), so no field is constructed per chunk.
      auto& up = scratch.rails.upper.amplitudes();
      auto& lo = scratch.rails.lower.amplitudes();
      up.assign(nl, photonics::Complex{0.0, 0.0});
      lo.assign(nl, photonics::Complex{0.0, 0.0});
      for (std::size_t i = 0; i < len; ++i) {
        up[i] = photonics::Complex{xe[base + i], 0.0};
        lo[i] = photonics::Complex{ye[base + i], 0.0};
      }
      acc += detect(scratch).value();
    } else {
      for (std::size_t i = 0; i < len; ++i) acc += xe[base + i] * ye[base + i];
    }
    if (ev != nullptr) {
      ev->detection_events += 1;
      ev->ddot_ops += 1;
      ev->macs += len;
    }
  }
  return adc ? adc->sample_to_voltage(acc) : acc;
}

template <typename Detect>
double PhotonicDotEngine::standalone_dot(std::span<const double> x, std::span<const double> y,
                                         bool full_optics, EventCounter* ev,
                                         const Detect& detect) const {
  std::vector<double> xe(x.size());
  std::vector<double> ye(y.size());
  encode_span(x, xe);
  encode_span(y, ye);
  DdotScratch scratch;
  const double out = reduce(xe, ye, full_optics, scratch, readout_adc(cfg_, x.size()), ev, detect);
  if (ev != nullptr) {
    const std::size_t n = x.size();
    ev->modulation_events += 2 * n;
    ev->cycles += (n + cfg_.wavelengths - 1) / cfg_.wavelengths;
    if (cfg_.adc_readout) ev->adc_events += 1;
  }
  return out;
}

double PhotonicDotEngine::dot(std::span<const double> x, std::span<const double> y,
                              EventCounter* ev) const {
  return standalone_dot(x, y, cfg_.use_full_optics, ev,
                        [this](DdotScratch& s) { return ddot_.compute(s.rails, s); });
}

double PhotonicDotEngine::dot_noisy(std::span<const double> x, std::span<const double> y,
                                    Rng& rng, EventCounter* ev) const {
  return standalone_dot(x, y, true, ev,
                        [&](DdotScratch& s) { return ddot_.compute_noisy(s.rails, rng, s); });
}

double PhotonicDotEngine::dot_preencoded(
    std::span<const double> xe, std::span<const double> ye, EventCounter* ev, const Ddot* ddot,
    DdotScratch* scratch, const std::optional<converters::ElectricalAdc>* readout) const {
  const Ddot& dev = ddot != nullptr ? *ddot : ddot_;
  DdotScratch local;
  std::optional<converters::ElectricalAdc> own;
  if (readout == nullptr) own = readout_adc(cfg_, xe.size());
  return reduce(xe, ye, cfg_.use_full_optics, scratch != nullptr ? *scratch : local,
                readout != nullptr ? *readout : own, ev,
                [&dev](DdotScratch& s) { return dev.compute(s.rails, s); });
}

}  // namespace pdac::ptc
