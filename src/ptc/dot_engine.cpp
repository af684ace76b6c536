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

PhotonicDotEngine::PhotonicDotEngine(const core::ModulatorDriver& driver, DotEngineConfig cfg)
    : driver_(driver),
      cfg_(cfg),
      ddot_(build_ddot(cfg)),
      quant_(driver.bits()) {
  PDAC_REQUIRE(cfg_.wavelengths >= 1, "PhotonicDotEngine: at least one wavelength");
  PDAC_REQUIRE(cfg_.lane_mask.empty() || cfg_.lane_mask.size() == cfg_.wavelengths,
               "PhotonicDotEngine: lane mask must cover every wavelength");
  for (std::size_t ch = 0; ch < cfg_.wavelengths; ++ch) {
    if (cfg_.lane_mask.empty() || cfg_.lane_mask[ch] != 0u) active_lanes_.push_back(ch);
  }
  PDAC_REQUIRE(!active_lanes_.empty(),
               "PhotonicDotEngine: lane mask leaves no usable wavelength");
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

double PhotonicDotEngine::apply_adc(double acc, std::size_t n, EventCounter* ev) const {
  if (!cfg_.adc_readout) return acc;
  const double fs =
      cfg_.adc_full_scale > 0.0 ? cfg_.adc_full_scale : static_cast<double>(std::max<std::size_t>(n, 1));
  converters::ElectricalAdcConfig ac;
  ac.bits = cfg_.adc_bits;
  ac.v_ref = fs;
  const converters::ElectricalAdc adc(ac);
  if (ev != nullptr) ev->adc_events += 1;
  return adc.sample_to_voltage(acc);
}

double PhotonicDotEngine::dot(std::span<const double> x, std::span<const double> y,
                              EventCounter* ev) const {
  PDAC_REQUIRE(x.size() == y.size(), "PhotonicDotEngine: operand length mismatch");
  const std::size_t n = x.size();
  // Operands pack onto the surviving wavelengths only; with dead lanes a
  // chunk reduces fewer elements, so the same vector takes more chunks.
  const std::size_t nl = active_lanes_.size();

  double acc = 0.0;
  std::size_t chunks = 0;
  for (std::size_t base = 0; base < n; base += nl, ++chunks) {
    const std::size_t len = std::min(nl, n - base);
    if (cfg_.use_full_optics) {
      photonics::DualRail rails{photonics::WdmField(cfg_.wavelengths),
                                photonics::WdmField(cfg_.wavelengths)};
      for (std::size_t i = 0; i < len; ++i) {
        const std::size_t ch = active_lanes_[i];
        rails.upper.set_amplitude(ch, photonics::Complex{encode(x[base + i]), 0.0});
        rails.lower.set_amplitude(ch, photonics::Complex{encode(y[base + i]), 0.0});
      }
      acc += ddot_.compute(rails).value();
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        acc += encode(x[base + i]) * encode(y[base + i]);
      }
    }
    if (ev != nullptr) {
      ev->modulation_events += 2 * len;
      ev->detection_events += 1;
      ev->ddot_ops += 1;
      ev->macs += len;
    }
  }

  acc = apply_adc(acc, n, ev);
  if (ev != nullptr) ev->cycles += chunks;
  return acc;
}

double PhotonicDotEngine::dot_preencoded(std::span<const double> xe, std::span<const double> ye,
                                         EventCounter* ev, const Ddot* ddot,
                                         DdotScratch* scratch) const {
  PDAC_REQUIRE(xe.size() == ye.size(), "PhotonicDotEngine: operand length mismatch");
  const std::size_t n = xe.size();
  const std::size_t nl = active_lanes_.size();
  const Ddot& dev = ddot != nullptr ? *ddot : ddot_;

  double acc = 0.0;
  for (std::size_t base = 0; base < n; base += nl) {
    const std::size_t len = std::min(nl, n - base);
    if (cfg_.use_full_optics) {
      if (scratch != nullptr) {
        // Caller-owned rails: overwrite every channel (inactive ones back
        // to exact +0) instead of constructing fresh fields per chunk —
        // the same amplitudes the allocating path stages.
        auto& up = scratch->rails.upper.amplitudes();
        auto& lo = scratch->rails.lower.amplitudes();
        up.assign(cfg_.wavelengths, photonics::Complex{0.0, 0.0});
        lo.assign(cfg_.wavelengths, photonics::Complex{0.0, 0.0});
        for (std::size_t i = 0; i < len; ++i) {
          const std::size_t ch = active_lanes_[i];
          up[ch] = photonics::Complex{xe[base + i], 0.0};
          lo[ch] = photonics::Complex{ye[base + i], 0.0};
        }
        acc += dev.compute(scratch->rails, *scratch).value();
      } else {
        photonics::DualRail rails{photonics::WdmField(cfg_.wavelengths),
                                  photonics::WdmField(cfg_.wavelengths)};
        for (std::size_t i = 0; i < len; ++i) {
          const std::size_t ch = active_lanes_[i];
          rails.upper.set_amplitude(ch, photonics::Complex{xe[base + i], 0.0});
          rails.lower.set_amplitude(ch, photonics::Complex{ye[base + i], 0.0});
        }
        acc += dev.compute(rails).value();
      }
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        acc += xe[base + i] * ye[base + i];
      }
    }
    if (ev != nullptr) {
      ev->detection_events += 1;
      ev->ddot_ops += 1;
      ev->macs += len;
    }
  }
  // ADC quantization is applied for numeric fidelity, but the sample is
  // charged by the caller (tile-level accounting), never here.
  return apply_adc(acc, n, nullptr);
}

double PhotonicDotEngine::dot_noisy(std::span<const double> x, std::span<const double> y,
                                    Rng& rng, EventCounter* ev) const {
  PDAC_REQUIRE(x.size() == y.size(), "PhotonicDotEngine: operand length mismatch");
  const std::size_t n = x.size();
  const std::size_t nl = active_lanes_.size();
  double acc = 0.0;
  std::size_t chunks = 0;
  for (std::size_t base = 0; base < n; base += nl, ++chunks) {
    const std::size_t len = std::min(nl, n - base);
    photonics::DualRail rails{photonics::WdmField(cfg_.wavelengths),
                              photonics::WdmField(cfg_.wavelengths)};
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t ch = active_lanes_[i];
      rails.upper.set_amplitude(ch, photonics::Complex{encode(x[base + i]), 0.0});
      rails.lower.set_amplitude(ch, photonics::Complex{encode(y[base + i]), 0.0});
    }
    acc += ddot_.compute_noisy(rails, rng).value();
    if (ev != nullptr) {
      ev->modulation_events += 2 * len;
      ev->detection_events += 1;
      ev->ddot_ops += 1;
      ev->macs += len;
    }
  }
  acc = apply_adc(acc, n, ev);
  if (ev != nullptr) ev->cycles += chunks;
  return acc;
}

}  // namespace pdac::ptc
