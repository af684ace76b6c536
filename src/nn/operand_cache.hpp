// operand_cache.hpp — byte-capacity LRU cache of prepared GEMM operands:
// the static weights of weight-stationary products (DESIGN.md §10) and
// the growing K/V history of decode attention (DESIGN.md §17).
//
// LLM inference reuses every weight matrix once per token (§II-A1), so
// the B-side prepare pass — scale, transpose, normalize, LUT-encode — is
// pure amortizable work.  Decode attention multiplies against operands
// that GROW one row per token (K gains a Kᵀ column, V a reduction row);
// keeping them resident and extending them in place through
// ptc::append_operand makes the per-token prepare O(1) instead of O(t),
// bit-identical at every length.  Both kinds are ptc::PreparedOperands
// served by one obtain() flow.  A caching backend keeps one instance for
// weights and one for KV history, because their id spaces and byte
// budgets differ.
//
// Entries are keyed by id and carry one freshness stamp, checked on
// every lookup: the content version, bumped whenever a weight's contents
// may have changed (Linear assigns ids and versions); KV history is
// append-only and always passes 0.  A lookup that fails it erases the
// entry and misses, so stale contents can never be returned.  What the
// stamp does not cover — scale growth, shape — the grow step refuses
// (ptc::append_operand), and obtain() then rebuilds.  No entry depends on
// encoder state: PhotonicGemm's LUT is fixed at engine construction, and
// faults::GuardedBackend stores quantizer codes that each tile step
// decodes through the lane tables it runs under, so a fault, re-trim or
// fence leaves every entry a hit.
//
// Accounting, one rule for both uses:
//   hit          — a fresh entry was found;
//   miss         — no fresh entry was found;
//   invalidation — an entry was stale at lookup, or erase() dropped it
//                  (replacement by insert() and clear() are not);
//   rebuild      — grow refused a fresh entry;
//   append       — an accepted grow changed the operand's shape;
//   eviction     — dropped by capacity pressure, least recently used
//                  first;
//   oversized    — an operand larger than the whole capacity is never
//                  resident, so capacity 0 stores nothing.
//
// Not thread-safe: backends own their caches and are driven from one
// thread (the GEMM engine parallelizes internally).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>

#include "ptc/gemm_engine.hpp"

namespace pdac::nn {

/// Identity + content-version pair a layer hands to the backend with
/// every cacheable product (Linear::weight_handle()).
struct WeightHandle {
  std::uint64_t id{0};       ///< stable weight identity (0 = uncacheable)
  std::uint64_t version{0};  ///< content stamp, bumped on mutable access
};

/// Which axis of the prepared operand grows as the sequence extends:
/// kCols — B = kvᵀ, C = a·kvᵀ, new kv rows are new OUTPUT columns (scores);
/// kRows — B = kv,  C = a·kv,  new kv rows extend the REDUCTION axis (context).
using KvAxis = ptc::GrowAxis;

/// Identity of one growing KV operand (sequence × head × product role).
/// The append-only contract is the caller's: rows already handed in under
/// an id never change.  id 0 is reserved for uncacheable products.
struct KvHandle {
  std::uint64_t id{0};
  KvAxis axis{KvAxis::kCols};
};

/// Process-unique nonzero KvHandle id.
[[nodiscard]] std::uint64_t next_kv_id();

struct OperandCacheConfig {
  std::size_t capacity_bytes{256ull << 20};  ///< LRU eviction threshold; 0 stores nothing
};

/// Default byte budget of a backend's KV-history cache.
inline constexpr std::size_t kKvCacheCapacityBytes = 64ull << 20;

struct OperandCacheStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t appends{0};
  std::uint64_t rebuilds{0};
  std::uint64_t evictions{0};
  std::uint64_t invalidations{0};
  std::uint64_t oversized_rejects{0};
  std::uint64_t resident_bytes{0};
  std::uint64_t entries{0};
};

class OperandCache {
 public:
  /// Grows a fresh resident operand to the caller's current source, or
  /// refuses it (ptc::append_operand's contract: a same-length source is
  /// an accepted no-op, so a weight's grow only confirms the entry).
  using Grow = std::function<bool(ptc::PreparedOperand&)>;
  /// Prepares the operand from scratch.
  using Build = std::function<ptc::PreparedOperand()>;

  explicit OperandCache(OperandCacheConfig cfg = {});

  /// The prepared operand for `id`: the fresh resident entry after `grow`
  /// accepts it (re-accounted when it grew), else a `build` stored in
  /// place of any refused or stale entry.  id 0 builds without touching
  /// the cache or its counters.
  [[nodiscard]] std::shared_ptr<ptc::PreparedOperand> obtain(std::uint64_t id,
                                                             std::uint64_t version,
                                                             const Grow& grow,
                                                             const Build& build);

  /// The fresh resident operand for (id, version) (LRU-touched), or
  /// nullptr.  A stale entry is erased before the miss is reported.
  [[nodiscard]] std::shared_ptr<ptc::PreparedOperand> lookup(std::uint64_t id,
                                                             std::uint64_t version);

  /// Store `op` under (id, version), replacing any entry for `id`, then
  /// evict LRU entries over the byte capacity.  An operand larger than
  /// the whole capacity is refused (counted) before any other resident is
  /// touched.  id 0 is ignored.
  void insert(std::uint64_t id, std::uint64_t version, std::shared_ptr<ptc::PreparedOperand> op);

  /// Pure residency probe for placement affinity (serve::BackendPool):
  /// true iff (id, version) is resident.  No LRU reordering, no stats
  /// mutation, no stale-entry eviction — the scheduler may probe many
  /// backends without perturbing any of them.
  [[nodiscard]] bool contains(std::uint64_t id, std::uint64_t version) const;

  /// Drop one entry if present (counted as an invalidation): sequence
  /// retirement, or a corrupted operand the owner is about to replace.
  void erase(std::uint64_t id);

  /// Drop everything (stats are kept; resident bytes/entries reset).
  void clear();

  [[nodiscard]] const OperandCacheStats& stats() const { return stats_; }
  [[nodiscard]] const OperandCacheConfig& config() const { return cfg_; }

 private:
  struct Entry {
    std::uint64_t id;
    std::uint64_t version;
    std::shared_ptr<ptc::PreparedOperand> op;
    std::size_t bytes;
  };

  void drop(std::list<Entry>::iterator it);
  void evict_over_capacity();

  OperandCacheConfig cfg_;
  OperandCacheStats stats_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

// The repository benchmark (perfbench/) changes only together with its
// baseline, and it still spells these names from before the KV-history
// cache merged into OperandCache.
using KvPreparedCache = OperandCache;
using KvPreparedCacheStats = OperandCacheStats;

}  // namespace pdac::nn
