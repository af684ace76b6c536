#include "nn/operand_cache.hpp"

#include <atomic>
#include <utility>

#include "common/require.hpp"

namespace pdac::nn {

std::uint64_t next_kv_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

OperandCache::OperandCache(OperandCacheConfig cfg) : cfg_(cfg) {}

std::shared_ptr<ptc::PreparedOperand> OperandCache::obtain(std::uint64_t id,
                                                           std::uint64_t version,
                                                           const Grow& grow,
                                                           const Build& build) {
  if (id == 0) return std::make_shared<ptc::PreparedOperand>(build());
  if (std::shared_ptr<ptc::PreparedOperand> op = lookup(id, version)) {
    const std::size_t rows = op->rows;
    const std::size_t cols = op->cols;
    if (grow(*op)) {
      if (op->rows != rows || op->cols != cols) {
        // Grown in place: re-account the entry lookup() just moved to
        // the front, then run the same eviction sweep as an insert.
        ++stats_.appends;
        Entry& e = lru_.front();
        stats_.resident_bytes -= e.bytes;
        e.bytes = op->bytes();
        stats_.resident_bytes += e.bytes;
        if (e.bytes > cfg_.capacity_bytes) {
          // Grown past the whole cache: drop it like an oversized
          // insert — keeping it would pin the cache at one entry forever.
          ++stats_.oversized_rejects;
          drop(lru_.begin());
        } else {
          evict_over_capacity();
        }
      }
      return op;
    }
    ++stats_.rebuilds;
  }
  auto op = std::make_shared<ptc::PreparedOperand>(build());
  insert(id, version, op);
  return op;
}

std::shared_ptr<ptc::PreparedOperand> OperandCache::lookup(std::uint64_t id,
                                                           std::uint64_t version) {
  const auto it = index_.find(id);
  if (it != index_.end()) {
    Entry& e = *it->second;
    if (e.version == version) {
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      ++stats_.hits;
      return e.op;
    }
    // Stale contents: the entry must never be served again under its
    // stamp, so erase it on the spot.
    ++stats_.invalidations;
    drop(it->second);
  }
  ++stats_.misses;
  return nullptr;
}

bool OperandCache::contains(std::uint64_t id, std::uint64_t version) const {
  const auto it = index_.find(id);
  return it != index_.end() && it->second->version == version;
}

void OperandCache::insert(std::uint64_t id, std::uint64_t version,
                          std::shared_ptr<ptc::PreparedOperand> op) {
  PDAC_REQUIRE(op != nullptr, "OperandCache: cannot insert a null operand");
  if (id == 0) return;
  const auto it = index_.find(id);
  if (it != index_.end()) drop(it->second);  // one live entry per id

  // An operand that exceeds the whole capacity can never survive the
  // eviction sweep — admitting it would flush every other resident and
  // then drop the newcomer itself, a full cache wipe for nothing.
  const std::size_t bytes = op->bytes();
  if (bytes > cfg_.capacity_bytes) {
    ++stats_.oversized_rejects;
    return;
  }
  lru_.push_front(Entry{id, version, std::move(op), bytes});
  index_[id] = lru_.begin();
  stats_.resident_bytes += bytes;
  stats_.entries = lru_.size();
  evict_over_capacity();
}

void OperandCache::erase(std::uint64_t id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  ++stats_.invalidations;
  drop(it->second);
}

void OperandCache::clear() {
  lru_.clear();
  index_.clear();
  stats_.resident_bytes = 0;
  stats_.entries = 0;
}

void OperandCache::drop(std::list<Entry>::iterator it) {
  stats_.resident_bytes -= it->bytes;
  index_.erase(it->id);
  lru_.erase(it);
  stats_.entries = lru_.size();
}

void OperandCache::evict_over_capacity() {
  while (stats_.resident_bytes > cfg_.capacity_bytes && !lru_.empty()) {
    ++stats_.evictions;
    drop(std::prev(lru_.end()));
  }
}

}  // namespace pdac::nn
