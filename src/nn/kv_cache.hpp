// kv_cache.hpp — per-sequence cache of append-only prepared KV operands
// (DESIGN.md §17).
//
// Decode-phase attention multiplies against operands that GROW one row
// per token: scores = q·Kᵀ (K gains a row, i.e. Kᵀ gains a column) and
// context = a·V (V gains a row on the reduction axis).  Preparing them
// from scratch every step re-normalizes, re-encodes and re-checksums the
// whole history — O(t) redundant work per token, O(t²) per sequence.
// This cache keeps each sequence's ptc::PreparedOperand resident and
// MUTABLE so backends extend it in place through ptc::append_operand:
// O(1) prepare work per token, bit-identical to the from-scratch build at
// every length.
//
// Keying: a KvHandle names one growing operand — a process-unique id
// (next_kv_id) plus the growth axis.  The append-only contract is the
// caller's to uphold: rows already handed in under an id must never
// change (the serving engine keys ids per request; attention keys them
// per AttentionKvState head).  Freshness (epoch, channel packing, scale
// stability) is the BACKEND's to validate per product — entries carry
// their PreparedOperand's own stamps, and a backend that finds an entry
// stale rebuilds and re-inserts (record_rebuild), exactly like a fresh
// sequence.
//
// Accounting mirrors OperandCache: byte-capacity LRU over physical
// resident bytes (appended operands re-account via updated()), explicit
// stats for hits / misses / appends / rebuilds / evictions.  An entry
// larger than the whole capacity is dropped and counted oversized — the
// caller falls back to uncached fresh prepares.
//
// Not thread-safe: backends own one cache each and are driven from one
// thread (the GEMM engine parallelizes internally).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "ptc/gemm_engine.hpp"

namespace pdac::nn {

/// Which axis of the prepared operand grows as the sequence extends:
/// kCols — B = kvᵀ, C = a·kvᵀ, new kv rows are new OUTPUT columns (scores);
/// kRows — B = kv,  C = a·kv,  new kv rows extend the REDUCTION axis (context).
using KvAxis = ptc::GrowAxis;

/// Identity of one growing KV operand (sequence × head × product role).
/// id 0 is reserved for uncacheable products.
struct KvHandle {
  std::uint64_t id{0};
  KvAxis axis{KvAxis::kCols};
};

/// Process-unique nonzero KvHandle id.
[[nodiscard]] std::uint64_t next_kv_id();

struct KvPreparedCacheConfig {
  std::size_t capacity_bytes{64ull << 20};  ///< LRU eviction threshold
  bool enabled{true};  ///< false = every lookup misses, nothing is stored
};

struct KvPreparedCacheStats {
  std::uint64_t hits{0};      ///< lookups served from residency
  std::uint64_t misses{0};    ///< lookups with no resident entry
  std::uint64_t appends{0};   ///< products served by an in-place append
  std::uint64_t rebuilds{0};  ///< resident entries rebuilt from scratch (stale)
  std::uint64_t evictions{0};
  std::uint64_t invalidations{0};  ///< explicit erase()/clear() drops
  std::uint64_t oversized_rejects{0};
  std::uint64_t resident_bytes{0};
  std::uint64_t entries{0};
};

class KvPreparedCache {
 public:
  explicit KvPreparedCache(KvPreparedCacheConfig cfg = {});

  /// The resident operand for `id` (LRU-touched), or nullptr.  No
  /// freshness check happens here — the backend validates epoch/packing/
  /// scale itself, because only it knows the current encoder state and
  /// whether an append can bridge the gap.
  [[nodiscard]] std::shared_ptr<ptc::PreparedOperand> lookup(std::uint64_t id);

  /// Store (or replace) an operand, evicting LRU entries over capacity.
  /// id 0 and oversized operands are rejected (counted).
  void insert(std::uint64_t id, std::shared_ptr<ptc::PreparedOperand> op);

  /// Re-account an entry whose operand grew in place (appends change
  /// bytes() without an insert); runs the same eviction sweep.
  void updated(std::uint64_t id);

  /// Drop one sequence's entry if present — sequence retirement, or a
  /// backend refusing an entry it cannot append to or rebuild.
  void erase(std::uint64_t id);

  /// Drop everything (stats kept; resident bytes/entries reset).
  void clear();

  void record_append() { ++stats_.appends; }
  void record_rebuild() { ++stats_.rebuilds; }

  [[nodiscard]] const KvPreparedCacheStats& stats() const { return stats_; }
  [[nodiscard]] const KvPreparedCacheConfig& config() const { return cfg_; }

 private:
  struct Entry {
    std::uint64_t id;
    std::shared_ptr<ptc::PreparedOperand> op;
    std::size_t bytes;
  };

  void drop(std::list<Entry>::iterator it);
  void evict_over_capacity();

  KvPreparedCacheConfig cfg_;
  KvPreparedCacheStats stats_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace pdac::nn
