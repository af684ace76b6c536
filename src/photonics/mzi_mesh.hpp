// mzi_mesh.hpp — Mach-Zehnder-interferometer mesh: the SVD-programmed
// photonic tensor core the paper positions Lightening-Transformer (and
// hence the P-DAC) against (§II-A3: "the MZI requires singular value
// decomposition and phase decomposition for operand mapping … mapping a
// 12×12 matrix takes approximately 1.5 ms").
//
// A triangular (Reck-style) arrangement of 2×2 interferometers realizes
// any orthogonal matrix as a product of Givens rotations; a full weight
// matrix W = U·Σ·Vᵀ takes two meshes around a diagonal attenuation
// column.  We model the real-valued case (phases 0/π carry signs —
// sufficient for real weight matrices and exactly the arithmetic the
// accelerator needs).  The crucial *system* property is captured
// faithfully: the mesh computes W·x at light speed once programmed, but
// programming requires an SVD + rotation decomposition on a CPU and
// thermal phase settling, which is 6+ orders of magnitude slower than a
// modulation cycle — the reason dynamic attention operands killed MZI
// meshes and motivated LT's DDot + the P-DAC.
#pragma once

#include <cstddef>
#include <vector>

#include "common/matrix.hpp"
#include "common/svd.hpp"
#include "common/units.hpp"

namespace pdac::photonics {

/// One programmed interferometer: a Givens rotation on modes (i, j).
struct MziRotation {
  std::size_t i{};
  std::size_t j{};
  double theta{};  ///< rotation angle (thermal phase pair in hardware)
};

/// Triangular mesh realizing an n×n orthogonal matrix.
class MziMesh {
 public:
  explicit MziMesh(std::size_t modes);

  /// Program the mesh to realize orthogonal `q` (within `tol`).  Returns
  /// the number of interferometers programmed.  Throws if `q` is not
  /// orthogonal to the tolerance.
  std::size_t program(const Matrix& q, double tol = 1e-9);

  /// Propagate an input mode vector through the mesh: returns Q·x.
  [[nodiscard]] std::vector<double> apply(std::span<const double> x) const;

  [[nodiscard]] std::size_t modes() const { return modes_; }
  [[nodiscard]] const std::vector<MziRotation>& rotations() const { return rotations_; }
  /// Interferometer count of a full triangular mesh: n(n−1)/2.
  [[nodiscard]] static std::size_t interferometers(std::size_t modes) {
    return modes * (modes - 1) / 2;
  }

 private:
  std::size_t modes_;
  /// Stored in application order; apply() runs the input signs first,
  /// then these rotations.
  std::vector<MziRotation> rotations_;
  std::vector<double> mode_signs_;  ///< per-mode ±1 (0/π phase shifters)
};

/// A complete SVD photonic core: Vᵀ-mesh → Σ attenuators → U-mesh.
class MziSvdCore {
 public:
  explicit MziSvdCore(std::size_t modes);

  /// Map a weight matrix (n×n, any real) onto the optics.  Also records
  /// the modeled mapping latency (see mapping_latency).
  void program(const Matrix& w);

  /// Optical matvec: returns W·x for the programmed W.
  [[nodiscard]] std::vector<double> apply(std::span<const double> x) const;

  /// Σ attenuators can only *attenuate*: singular values are normalized
  /// by σ_max and the scale is restored electronically.
  [[nodiscard]] double optical_scale() const { return scale_; }

  /// Modeled time to compute the mapping (CPU SVD + phase decomposition)
  /// — calibrated to the paper's 1.5 ms for n = 12 with O(n³) scaling.
  [[nodiscard]] static units::Time mapping_latency(std::size_t modes);

  [[nodiscard]] std::size_t modes() const { return modes_; }

 private:
  std::size_t modes_;
  MziMesh u_mesh_;
  MziMesh vt_mesh_;
  std::vector<double> sigma_;  ///< normalized singular values in [0, 1]
  double scale_{1.0};
};

}  // namespace pdac::photonics
