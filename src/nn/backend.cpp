#include "nn/backend.hpp"

#include <cmath>

namespace pdac::nn {

Matrix ReferenceBackend::matmul(const Matrix& a, const Matrix& b) {
  events_.macs += a.rows() * a.cols() * b.cols();
  return matmul_reference(a, b);
}

PhotonicBackend::PhotonicBackend(std::unique_ptr<core::ModulatorDriver> driver,
                                 ptc::GemmConfig cfg, OperandCacheConfig cache_cfg,
                                 OperandCacheConfig kv_cfg)
    : driver_(std::move(driver)), gemm_(*driver_, cfg), cache_(cache_cfg),
      kv_cache_(kv_cfg) {}

void PhotonicBackend::fold_guard(const ptc::GuardOutcome& outcome) {
  if (!outcome.enabled) return;
  ++guard_.products;
  guard_.tiles_checked += outcome.tiles_checked;
  guard_.mismatched_tiles += outcome.mismatched_tiles;
  guard_.checksum_events += outcome.checksum_events;
  if (std::isnan(outcome.worst_residual) || outcome.worst_residual > guard_.worst_residual) {
    guard_.worst_residual = outcome.worst_residual;
    guard_.worst_tolerance = outcome.worst_tolerance;
  }
}

Matrix PhotonicBackend::matmul(const Matrix& a, const Matrix& b) {
  ptc::GemmResult r = gemm_.multiply(a, b);
  events_ += r.events;
  fold_guard(r.guard);
  return std::move(r.c);
}

Matrix PhotonicBackend::matmul_cached(const Matrix& a, const Matrix& b,
                                      const WeightHandle& weight) {
  return run_cached(
      a, cache_, weight.id, weight.version,
      [&](ptc::PreparedOperand& pb) { return gemm_.append_b_rows(pb, b); },
      [&] { return gemm_.prepare_b(b); });
}

Matrix PhotonicBackend::matmul_kv(const Matrix& a, const Matrix& kv,
                                  const KvHandle& handle) {
  const bool cols_axis = handle.axis == KvAxis::kCols;
  return run_cached(
      a, kv_cache_, handle.id, 0,
      [&](ptc::PreparedOperand& pb) {
        return cols_axis ? gemm_.append_bt_rows(pb, kv) : gemm_.append_b_rows(pb, kv);
      },
      [&] { return cols_axis ? gemm_.prepare_bt(kv) : gemm_.prepare_b(kv); });
}

Matrix PhotonicBackend::run_cached(const Matrix& a, OperandCache& cache, std::uint64_t id,
                                   std::uint64_t version, const OperandCache::Grow& grow,
                                   const OperandCache::Build& build) {
  std::shared_ptr<ptc::PreparedOperand> pb = cache.obtain(id, version, 0, grow, build);
  ptc::GemmResult r = gemm_.multiply_prepared(a, *pb);
  events_ += r.events;
  fold_guard(r.guard);
  if (r.guard.enabled && !r.guard.clean()) {
    // The driver is immutable, so current and golden encodings coincide
    // and a guarded mismatch can only mean the cached operand's memory
    // was corrupted after insertion.  Repair: drop the entry, re-prepare
    // from the source and rerun once (honestly re-charged).
    ++guard_.cache_repairs;
    cache.erase(id);
    pb = std::make_shared<ptc::PreparedOperand>(build());
    cache.insert(id, version, pb);
    r = gemm_.multiply_prepared(a, *pb);
    events_ += r.events;
    fold_guard(r.guard);
  }
  return std::move(r.c);
}

std::string PhotonicBackend::name() const { return "photonic/" + driver_->name(); }

std::unique_ptr<GemmBackend> make_reference_backend() {
  return std::make_unique<ReferenceBackend>();
}

std::unique_ptr<GemmBackend> make_photonic_pdac_backend(int bits, ptc::GemmConfig cfg,
                                                        OperandCacheConfig cache_cfg) {
  return std::make_unique<PhotonicBackend>(core::make_pdac_driver(bits), cfg, cache_cfg);
}

std::unique_ptr<GemmBackend> make_photonic_ideal_dac_backend(int bits, ptc::GemmConfig cfg,
                                                             OperandCacheConfig cache_cfg) {
  return std::make_unique<PhotonicBackend>(core::make_ideal_dac_driver(bits), cfg, cache_cfg);
}

}  // namespace pdac::nn
