#include "converters/quantizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/simd.hpp"

namespace pdac::converters {

Quantizer::Quantizer(int bits) : bits_(bits) {
  PDAC_REQUIRE(bits >= 2 && bits <= 16, "Quantizer: bits in [2, 16]");
  max_code_ = static_cast<std::int32_t>((1 << (bits - 1)) - 1);
}

std::int32_t Quantizer::encode(double r) const { return simd::quantize_code(r, max_code_); }

void Quantizer::encode(std::span<const double> r, std::span<std::int32_t> codes,
                       double divisor) const {
  PDAC_REQUIRE(r.size() == codes.size(), "Quantizer: encode span size mismatch");
  simd::quantize(r.data(), r.size(), divisor, max_code_, codes.data());
}

double Quantizer::decode(std::int32_t code) const {
  PDAC_REQUIRE(code >= -max_code_ && code <= max_code_, "Quantizer: code out of range");
  return static_cast<double>(code) / static_cast<double>(max_code_);
}

double max_abs_scale(std::span<const double> values) {
  double m = 0.0;
  for (double v : values) m = std::max(m, std::abs(v));
  return m > 0.0 ? m : 1.0;
}

std::vector<std::int32_t> quantize_vector(std::span<const double> values, const Quantizer& q,
                                          double* scale_out) {
  const double scale = max_abs_scale(values);
  if (scale_out != nullptr) *scale_out = scale;
  std::vector<std::int32_t> codes(values.size());
  q.encode(values, codes, scale);
  return codes;
}

std::vector<double> dequantize_vector(std::span<const std::int32_t> codes, const Quantizer& q,
                                      double scale) {
  std::vector<double> out(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) out[i] = q.decode(codes[i]) * scale;
  return out;
}

}  // namespace pdac::converters
