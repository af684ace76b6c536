#include "photonics/mzi_mesh.hpp"

#include <cmath>

#include "common/require.hpp"

namespace pdac::photonics {

MziMesh::MziMesh(std::size_t modes) : modes_(modes), mode_signs_(modes, 1.0) {
  PDAC_REQUIRE(modes >= 1, "MziMesh: at least one mode");
}

std::size_t MziMesh::program(const Matrix& q, double tol) {
  PDAC_REQUIRE(q.rows() == modes_ && q.cols() == modes_, "MziMesh: shape mismatch");
  // Verify orthogonality: QᵀQ = I within tolerance.
  for (std::size_t i = 0; i < modes_; ++i) {
    for (std::size_t j = 0; j < modes_; ++j) {
      double dot = 0.0;
      for (std::size_t r = 0; r < modes_; ++r) dot += q(r, i) * q(r, j);
      const double expect = i == j ? 1.0 : 0.0;
      PDAC_REQUIRE(std::abs(dot - expect) <= tol * 10.0 + 1e-9,
                   "MziMesh: matrix is not orthogonal");
    }
  }

  // Givens elimination: rotations G_1…G_N reduce Q to a ±1 diagonal D,
  // so Q = G_1ᵀ·…·G_Nᵀ·D and light must see D first, then the inverse
  // rotations in reverse elimination order.
  Matrix work = q;
  std::vector<MziRotation> elimination;
  for (std::size_t c = 0; c + 1 < modes_; ++c) {
    for (std::size_t r = c + 1; r < modes_; ++r) {
      if (std::abs(work(r, c)) < 1e-14) continue;
      const double theta = std::atan2(work(r, c), work(c, c));
      const double cs = std::cos(theta);
      const double sn = std::sin(theta);
      for (std::size_t col = 0; col < modes_; ++col) {
        const double a = work(c, col);
        const double b = work(r, col);
        work(c, col) = cs * a + sn * b;
        work(r, col) = -sn * a + cs * b;
      }
      elimination.push_back(MziRotation{c, r, theta});
    }
  }

  mode_signs_.assign(modes_, 1.0);
  for (std::size_t i = 0; i < modes_; ++i) {
    mode_signs_[i] = work(i, i) >= 0.0 ? 1.0 : -1.0;
  }

  rotations_.clear();
  rotations_.reserve(elimination.size());
  for (auto it = elimination.rbegin(); it != elimination.rend(); ++it) {
    rotations_.push_back(MziRotation{it->i, it->j, -it->theta});  // Gᵀ = G(−θ)
  }
  return rotations_.size();
}

std::vector<double> MziMesh::apply(std::span<const double> x) const {
  PDAC_REQUIRE(x.size() == modes_, "MziMesh: input width mismatch");
  std::vector<double> y(x.begin(), x.end());
  for (std::size_t i = 0; i < modes_; ++i) y[i] *= mode_signs_[i];
  for (const auto& rot : rotations_) {
    const double cs = std::cos(rot.theta);
    const double sn = std::sin(rot.theta);
    const double a = y[rot.i];
    const double b = y[rot.j];
    y[rot.i] = cs * a + sn * b;
    y[rot.j] = -sn * a + cs * b;
  }
  return y;
}

MziSvdCore::MziSvdCore(std::size_t modes)
    : modes_(modes), u_mesh_(modes), vt_mesh_(modes), sigma_(modes, 0.0) {
  PDAC_REQUIRE(modes >= 1, "MziSvdCore: at least one mode");
}

void MziSvdCore::program(const Matrix& w) {
  PDAC_REQUIRE(w.rows() == modes_ && w.cols() == modes_, "MziSvdCore: shape mismatch");
  const math::SvdResult dec = math::svd(w);
  scale_ = dec.singular.front() > 0.0 ? dec.singular.front() : 1.0;
  for (std::size_t i = 0; i < modes_; ++i) sigma_[i] = dec.singular[i] / scale_;
  (void)u_mesh_.program(dec.u);
  (void)vt_mesh_.program(dec.v.transposed());
}

std::vector<double> MziSvdCore::apply(std::span<const double> x) const {
  std::vector<double> y = vt_mesh_.apply(x);
  for (std::size_t i = 0; i < modes_; ++i) y[i] *= sigma_[i];
  y = u_mesh_.apply(y);
  for (auto& v : y) v *= scale_;
  return y;
}

units::Time MziSvdCore::mapping_latency(std::size_t modes) {
  // Calibrated to the paper's quote: "mapping a 12×12 matrix takes
  // approximately 1.5 ms" for SVD + phase decomposition, O(n³).
  const double n = static_cast<double>(modes);
  return units::seconds(1.5e-3 * (n / 12.0) * (n / 12.0) * (n / 12.0));
}

}  // namespace pdac::photonics
