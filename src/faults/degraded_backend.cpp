#include "faults/degraded_backend.hpp"

#include <memory>
#include <vector>

#include "common/require.hpp"
#include "converters/quantizer.hpp"
#include "ptc/tile_scheduler.hpp"

namespace pdac::faults {

DegradedBackend::DegradedBackend(const LaneBank& bank, DegradedBackendConfig cfg)
    : bank_(bank),
      cfg_(cfg),
      pool_(std::make_unique<ThreadPool>(cfg.threads)),
      cache_(cfg.cache) {
  PDAC_REQUIRE(cfg_.array_rows >= 1 && cfg_.array_cols >= 1,
               "DegradedBackend: array dimensions must be positive");
}

Matrix DegradedBackend::matmul(const Matrix& a, const Matrix& b) {
  PDAC_REQUIRE(a.cols() == b.rows(), "DegradedBackend: inner dimensions must agree");
  if (cfg_.use_lane_table) table_.ensure(bank_);
  if (bank_.usable_channels() == 0) return Matrix(a.rows(), b.cols());
  return run_prepared(a, *obtain_b(b, nullptr));
}

Matrix DegradedBackend::matmul_cached(const Matrix& a, const Matrix& b,
                                      const nn::WeightHandle& weight) {
  PDAC_REQUIRE(a.cols() == b.rows(), "DegradedBackend: inner dimensions must agree");
  if (cfg_.use_lane_table) table_.ensure(bank_);
  if (bank_.usable_channels() == 0) return Matrix(a.rows(), b.cols());
  return run_prepared(a, *obtain_b(b, &weight));
}

std::shared_ptr<const ptc::PreparedOperand> DegradedBackend::obtain_b(
    const Matrix& b, const nn::WeightHandle* weight) {
  // Snapshot the packing once per product: the self-test fences lanes
  // between matmuls, not inside one.
  const ptc::OperandSpec spec{.epoch = bank_.epoch(), .channels = bank_.surviving_channels()};
  const auto prepare = [&] {
    Matrix stage;
    const LaneEncoder encode{bank_, spec.channels, 1, cfg_.use_lane_table ? &table_ : nullptr};
    return std::make_shared<const ptc::PreparedOperand>(
        ptc::prepare_operand(b, ptc::GrowAxis::kRows, spec, encode, *pool_, stage));
  };
  if (weight == nullptr) return prepare();
  std::shared_ptr<const ptc::PreparedOperand> pb =
      cache_.lookup(weight->id, weight->version, spec.epoch);
  if (pb != nullptr && pb->channels != spec.channels) {
    // The epoch matched but the packing did not — a fence was applied
    // directly to a lane without bump_epoch().  Refuse the entry.
    cache_.erase(weight->id);
    pb = nullptr;
  }
  if (pb == nullptr) {
    pb = prepare();
    cache_.insert(weight->id, weight->version, pb);
  }
  return pb;
}

Matrix DegradedBackend::run_prepared(const Matrix& a, const ptc::PreparedOperand& pb) {
  const std::size_t k = a.cols();
  const std::size_t nl = pb.channels.size();

  // A-side pipeline through the x-rail lanes, fresh every product.
  const double a_scale = converters::max_abs_scale(a.data());
  Matrix an(a.rows(), k);
  for (std::size_t i = 0; i < a.size(); ++i) an.data()[i] = a.data()[i] / a_scale;
  Matrix ae(a.rows(), k);
  const LaneEncoder encode{bank_, pb.channels, 0, cfg_.use_lane_table ? &table_ : nullptr};
  pool_->parallel_for(a.rows(), [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t r = begin; r < end; ++r) encode(an.row(r), 0, ae.row(r), {});
  });

  Matrix c(a.rows(), pb.cols);
  const double rescale = a_scale * pb.scale;
  const std::vector<ptc::Tile> tiles =
      ptc::partition_tiles(a.rows(), pb.cols, cfg_.array_rows, cfg_.array_cols);
  ptc::for_each_tile(*pool_, tiles, [&](std::size_t t, std::size_t) {
    const ptc::Tile& tile = tiles[t];
    for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
      const auto x = ae.row(i);
      for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
        const auto y = pb.encoded.row(j);
        // Ascending p is the serial chunk order (base, then in-chunk
        // lane), so the accumulation is bit-identical to the serial path.
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) acc += x[p] * y[p];
        c(i, j) = acc * rescale;
      }
    }
  });
  for (const ptc::Tile& tile : tiles) events_ += ptc::tile_step_events(tile.rows, tile.cols, k, nl);
  return c;
}

}  // namespace pdac::faults
