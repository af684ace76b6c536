// degraded_backend.hpp — GEMM execution through a faulty lane bank.
//
// PhotonicBackend (nn/backend.hpp) drives one representative P-DAC for
// every modulator; that is the right abstraction for accuracy ablations
// where all lanes are statistically identical.  Fault studies break that
// symmetry: each lane is its own fabricated instance carrying its own
// fault overlay, and some lanes are fenced entirely.  This backend
// encodes every operand element through the specific lane device that
// would carry it — x-rail lane for A elements, y-rail lane for B
// elements — packing reductions onto the surviving WDM channels only.
// Fewer survivors mean more chunks per reduction, which the event
// counter reports as honest throughput loss.
//
// The bank is referenced, not owned: the injector keeps mutating it
// between matmuls, so the degradation the model sees tracks the fault
// timeline with no copying.
//
// Operands are built by ptc::prepare_operand with the faults lane
// encoder (lane_table.hpp) as the encode source; A rows go through the
// same encoder on the x rail.
//
// Weight-stationary reuse (DESIGN.md §10): matmul_cached keeps prepared
// B-side encodings in an operand cache, validated against TWO freshness
// signals — the bank's epoch (bumped by the injector, self-test re-trim
// and production trim) and a per-product snapshot of the surviving
// channel packing (which catches fences applied directly to lanes
// without an epoch bump).  A mismatch on either forces a re-encode, so
// decode loops never run a token through pre-fault encodings.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "faults/lane_bank.hpp"
#include "faults/lane_table.hpp"
#include "nn/backend.hpp"

namespace pdac::faults {

struct DegradedBackendConfig {
  /// Tile geometry used for event accounting (matches ptc::GemmConfig).
  std::size_t array_rows{8};
  std::size_t array_cols{8};
  /// Simulation workers for the tile dispatch (same semantics as
  /// ptc::GemmConfig::threads): 1 = serial, 0 = auto.  Lane devices are
  /// only read during a matmul (the injector mutates them *between*
  /// products), so workers share the bank safely; results are
  /// bit-identical at any thread count.
  std::size_t threads{1};
  /// Weight-stationary operand cache for matmul_cached products.
  nn::OperandCacheConfig cache{};
  /// Serve per-lane encodes from an epoch-keyed coefficient table
  /// (lane_table.hpp) instead of evaluating the lane model per element.
  /// Bit-identical either way (a test pins it); off only for A/B checks.
  bool use_lane_table{true};
};

class DegradedBackend final : public nn::GemmBackend {
 public:
  explicit DegradedBackend(const LaneBank& bank, DegradedBackendConfig cfg = {});

  /// Multiply through the surviving lanes.  With every channel fenced
  /// the accelerator is offline: the result is all zeros and no events
  /// are counted — callers see the outage in both accuracy and cycles.
  [[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b) override;

  /// Same product with the B-side encoding cached across calls; results
  /// are bit-identical to matmul(a, b) under the current bank state.
  [[nodiscard]] Matrix matmul_cached(const Matrix& a, const Matrix& b,
                                     const nn::WeightHandle& weight) override;

  [[nodiscard]] std::string name() const override { return "photonic-degraded"; }

  [[nodiscard]] const LaneBank& bank() const { return bank_; }
  [[nodiscard]] const nn::OperandCache* operand_cache() const override { return &cache_; }
  [[nodiscard]] nn::OperandCache& cache() { return cache_; }

 private:
  /// Prepared B under the current packing: the cached entry while its
  /// epoch and packing hold (nullptr weight = uncached), else a fresh
  /// ptc::prepare_operand through the y-rail lanes.
  [[nodiscard]] std::shared_ptr<const ptc::PreparedOperand> obtain_b(
      const Matrix& b, const nn::WeightHandle* weight);

  /// A-side pipeline + tile-parallel reduction against a prepared B.
  [[nodiscard]] Matrix run_prepared(const Matrix& a, const ptc::PreparedOperand& pb);

  const LaneBank& bank_;
  DegradedBackendConfig cfg_;
  std::unique_ptr<ThreadPool> pool_;
  nn::OperandCache cache_;
  /// Current-state lane coefficients, rebuilt on LaneBank epoch bumps at
  /// product entry (the injector mutates between products, never inside).
  LaneEncodeTable table_;
};

}  // namespace pdac::faults
