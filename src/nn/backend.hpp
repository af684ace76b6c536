// backend.hpp — pluggable GEMM execution for the transformer stack.
//
// Layers (linear, attention, encoder_layer) call an abstract backend so
// the same model can run on the double-precision reference, the photonic
// core with ideal-DAC drivers, or the photonic core with P-DACs — which
// is exactly the comparison the accuracy ablations make.  Backends
// accumulate hardware event counts across every product they perform.
//
// Every photonic backend routes through the tile-parallel GEMM engine
// (gemm_engine.hpp): pass a GemmConfig with `threads != 1` to spread tile
// simulation across cores — results are bit-identical at any thread
// count, so accuracy experiments can always run wide.
//
// Weight-stationary execution (DESIGN.md §10): layers route products
// against *static* operands through matmul_cached with a WeightHandle,
// letting backends reuse a prepared (transposed/normalized/encoded)
// B-side across forwards — identical results, one prepare pass instead
// of one per token.  Activation×activation products (attention scores
// and context) keep using plain matmul and are never cached.
//
// KV-stationary execution (DESIGN.md §17): decode-phase attention's
// dynamic operands (K, V) are not static, but they only ever GROW —
// one row per token.  matmul_kv takes a KvHandle naming the growing
// operand and its axis; caching backends keep the prepared encoding
// resident and extend it in place with the ptc append operations,
// turning the per-token prepare cost from O(t) to O(1) while staying
// bit-identical to the from-scratch build.  Weights and KV history sit
// in two instances of one nn::OperandCache and share its obtain() flow.
#pragma once

#include <memory>
#include <string>

#include "common/matrix.hpp"
#include "core/modulator_driver.hpp"
#include "nn/operand_cache.hpp"
#include "ptc/event_counter.hpp"
#include "ptc/gemm_engine.hpp"

namespace pdac::nn {

/// Aggregated ABFT guard verdicts across every product a backend ran
/// with GemmConfig::guard enabled (DESIGN.md §12).  On the immutable
/// PhotonicBackend driver a mismatch can only mean a corrupted cached
/// operand, which matmul_cached auto-repairs (re-prepare + rerun once,
/// counted in cache_repairs).
struct GuardStats {
  std::size_t products{0};
  std::size_t tiles_checked{0};
  std::size_t mismatched_tiles{0};
  std::size_t cache_repairs{0};
  double worst_residual{0.0};
  double worst_tolerance{0.0};
  ptc::EventCounter checksum_events;  ///< spare checksum-lane charge
};

class GemmBackend {
 public:
  virtual ~GemmBackend() = default;

  [[nodiscard]] virtual Matrix matmul(const Matrix& a, const Matrix& b) = 0;

  /// Product whose B operand is a registered weight (stable identity +
  /// content version).  Backends with an operand cache reuse prepared
  /// encodings across calls; results are bit-identical to matmul(a, b).
  /// The default simply forwards, so reference execution is unchanged.
  [[nodiscard]] virtual Matrix matmul_cached(const Matrix& a, const Matrix& b,
                                             const WeightHandle&) {
    return matmul(a, b);
  }

  /// Product against a GROWING dynamic operand (decode-phase K or V).
  /// `kv` holds the full history so far; `handle` names the sequence and
  /// the growth axis (kCols: C = a·kvᵀ, scores; kRows: C = a·kv,
  /// context).  The caller promises rows already passed under this id
  /// are unchanged — backends may then serve the product from a resident
  /// prepared operand extended in place (bit-identical to from-scratch).
  /// The default computes the product directly, so reference execution
  /// and non-caching backends need no KV awareness.
  [[nodiscard]] virtual Matrix matmul_kv(const Matrix& a, const Matrix& kv,
                                         const KvHandle& handle) {
    return handle.axis == KvAxis::kCols ? matmul(a, kv.transposed())
                                        : matmul(a, kv);
  }

  /// Retire a sequence's resident KV state (no-op without a cache).
  virtual void release_kv(std::uint64_t /*id*/) {}

  [[nodiscard]] virtual std::string name() const = 0;

  /// The backend's operand cache, for stats reporting (nullptr when the
  /// backend does not cache).
  [[nodiscard]] virtual const OperandCache* operand_cache() const { return nullptr; }

  /// The backend's KV-history operand cache (nullptr when the backend
  /// serves matmul_kv without caching).
  [[nodiscard]] virtual const OperandCache* kv_cache() const { return nullptr; }

  /// Aggregated ABFT guard verdicts (nullptr when the backend never
  /// guards — the reference backend, or a photonic one with guard off).
  [[nodiscard]] virtual const GuardStats* guard_stats() const { return nullptr; }

  [[nodiscard]] const ptc::EventCounter& events() const { return events_; }
  void reset_events() { events_ = {}; }

 protected:
  ptc::EventCounter events_;
};

/// Exact double-precision execution (ground truth).
class ReferenceBackend final : public GemmBackend {
 public:
  [[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b) override;
  [[nodiscard]] std::string name() const override { return "reference"; }
};

/// Execution through the simulated photonic tensor core; owns its
/// modulator driver and two operand caches, one for weight-stationary
/// reuse and one for KV history (the driver is immutable after
/// construction, so cached encodings only go stale when a weight's
/// contents change).
class PhotonicBackend final : public GemmBackend {
 public:
  PhotonicBackend(std::unique_ptr<core::ModulatorDriver> driver, ptc::GemmConfig cfg,
                  OperandCacheConfig cache_cfg = {},
                  OperandCacheConfig kv_cfg = {kKvCacheCapacityBytes});

  [[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b) override;
  [[nodiscard]] Matrix matmul_cached(const Matrix& a, const Matrix& b,
                                     const WeightHandle& weight) override;
  /// KV products through the prepared path: fresh sequences prepare once
  /// (prepare_bt for kCols — no transpose copy — or prepare_b for kRows);
  /// later steps extend the resident operand in place via append_bt_rows /
  /// append_b_rows.  An append the engine refuses (scale outgrown,
  /// shrink, tier mismatch) falls back to a counted rebuild.  Outputs and
  /// events are bit-identical to the unprepared default at every length.
  [[nodiscard]] Matrix matmul_kv(const Matrix& a, const Matrix& kv,
                                 const KvHandle& handle) override;
  void release_kv(std::uint64_t id) override { kv_cache_.erase(id); }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const core::ModulatorDriver& driver() const { return *driver_; }
  [[nodiscard]] const OperandCache* operand_cache() const override { return &cache_; }
  [[nodiscard]] OperandCache& cache() { return cache_; }
  [[nodiscard]] const OperandCache* kv_cache() const override { return &kv_cache_; }
  [[nodiscard]] const GuardStats* guard_stats() const override {
    return gemm_.config().guard.enabled ? &guard_ : nullptr;
  }

 private:
  void fold_guard(const ptc::GuardOutcome& outcome);
  /// C = A·B with B obtained from `cache` under (id, version).  Guarded,
  /// a mismatch can only mean the resident operand's memory was
  /// corrupted (the driver is immutable), so the entry is replaced by a
  /// fresh build and the product rerun once.
  [[nodiscard]] Matrix run_cached(const Matrix& a, OperandCache& cache, std::uint64_t id,
                                  std::uint64_t version, const OperandCache::Grow& grow,
                                  const OperandCache::Build& build);

  std::unique_ptr<core::ModulatorDriver> driver_;
  ptc::PhotonicGemm gemm_;
  OperandCache cache_;
  OperandCache kv_cache_;
  GuardStats guard_;
};

/// Convenience factories for the three standard configurations.
std::unique_ptr<GemmBackend> make_reference_backend();
std::unique_ptr<GemmBackend> make_photonic_pdac_backend(int bits,
                                                        ptc::GemmConfig cfg = {},
                                                        OperandCacheConfig cache_cfg = {});
std::unique_ptr<GemmBackend> make_photonic_ideal_dac_backend(int bits,
                                                             ptc::GemmConfig cfg = {},
                                                             OperandCacheConfig cache_cfg = {});

/// `cfg` with `path` set to ptc::fastest_path(), whatever the driver.
/// Kept only for perfbench/src/decode.cpp, which passes a driver; new
/// callers use ptc::fastest_path.
[[nodiscard]] inline ptc::GemmConfig fastest_gemm_config(const core::ModulatorDriver& /*driver*/,
                                                         ptc::GemmConfig cfg = {}) {
  cfg.path = ptc::fastest_path();
  return cfg;
}

/// GemmConfig with the ABFT checksum guard switched on (abft.hpp) —
/// every product verifies its tiles against digital references and the
/// verdicts surface through GemmBackend::guard_stats().  Pass a
/// noise-calibrated band (ptc::calibrate_guard_sigma) when the dot
/// engine runs with ADC readout or detector noise enabled.
[[nodiscard]] inline ptc::GemmConfig guarded_gemm_config(ptc::GuardConfig guard = {},
                                                         ptc::GemmConfig cfg = {}) {
  guard.enabled = true;
  cfg.guard = guard;
  return cfg;
}

}  // namespace pdac::nn
