// quantizer.hpp — symmetric fixed-point quantization.
//
// The accelerator operates on b-bit two's-complement operands mapped to
// the analog interval (−1, 1): a code c represents r = c / (2^{b−1} − 1),
// exactly the paper's example ("0x40 in an 8-bit system … 0x40/(2⁷−1) =
// 0.5").  Tensor operands are scaled by their max-abs before encoding and
// rescaled after detection.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

namespace pdac::converters {

/// Symmetric b-bit quantizer over (−1, 1).
class Quantizer {
 public:
  explicit Quantizer(int bits);

  [[nodiscard]] int bits() const { return bits_; }
  /// Largest positive code = 2^{b−1} − 1 (also the scale denominator).
  [[nodiscard]] std::int32_t max_code() const { return max_code_; }

  /// Quantize r ∈ [−1, 1] to the nearest code, ties away from zero
  /// (saturating outside; NaN gives code 0).  The scalar reference the
  /// span overload is tested against.
  [[nodiscard]] std::int32_t encode(double r) const;
  /// codes[i] = encode(r[i] / divisor), bit for bit, through the one span
  /// rounding routine (simd::quantize: AVX2 where the CPU has it).  Every
  /// quantized span in the library goes through it: the engine and lane
  /// encoders (divisor 1) and the ADC readout (divisor V_ref).
  void encode(std::span<const double> r, std::span<std::int32_t> codes,
              double divisor = 1.0) const;
  /// The span encode for callers that consume each code at once: encodes
  /// r / divisor a stack chunk at a time and calls use(i, code) for every
  /// i in ascending order.  Each chunk of `r` is read whole before its
  /// use() calls, so use(i, …) may overwrite the memory r[i] views (an
  /// in-place readout).
  template <typename Use>
  void encode_each(std::span<const double> r, double divisor, const Use& use) const {
    constexpr std::size_t kChunk = 256;
    std::int32_t codes[kChunk];
    for (std::size_t i0 = 0; i0 < r.size(); i0 += kChunk) {
      const std::size_t len = std::min(kChunk, r.size() - i0);
      encode(r.subspan(i0, len), std::span<std::int32_t>(codes, len), divisor);
      for (std::size_t i = 0; i < len; ++i) use(i0 + i, codes[i]);
    }
  }
  /// Analog value of a code: c / (2^{b−1} − 1).
  [[nodiscard]] double decode(std::int32_t code) const;
  /// encode→decode round trip (the value the hardware actually computes with).
  [[nodiscard]] double quantize(double r) const { return decode(encode(r)); }

  /// One quantization step in analog units.
  [[nodiscard]] double step() const { return 1.0 / static_cast<double>(max_code_); }

 private:
  int bits_;
  std::int32_t max_code_;
};

/// Max-abs scale for mapping an arbitrary real tensor into [−1, 1].
/// Returns 1.0 for an all-zero input so dequantization stays a no-op.
double max_abs_scale(std::span<const double> values);

}  // namespace pdac::converters
