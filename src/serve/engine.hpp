// engine.hpp — continuous-batching serving over a guarded backend pool
// (DESIGN.md §14): keep tokens flowing while escalation fires mid-batch.
//
// The engine runs a deterministic discrete-event simulation in virtual
// cycles.  Requests arrive on a Poisson clock, pass deadline-aware
// admission into a bounded queue, and are decoded one token per product:
// each free backend takes an EDF-ordered batch for one weight set
// (cache-affinity-preferring), runs one guarded GEMM, and every row of
// the result is one token for one request.  Backend time advances by the
// product's *actual* event cost — data-path cycles plus every probe the
// escalation ladder burned — so a backend fighting through retry /
// re-trim / fence rungs visibly stalls its own lane while the rest of
// the pool keeps emitting tokens.
//
// Scheduling policies (all deterministic):
//  * Admission: bounded occupancy (`max_queue` admitted-unfinished
//    requests); a deadline provably unmeetable at arrival — by the
//    measured per-token service estimate — is shed immediately.
//  * Placement: per-backend batch caps scale with BackendPool's
//    guard-aware health score, so chronically-implicated backends get
//    proportionally less work; offline backends get none.
//  * Verdicts: every request terminates as completed | shed | failed —
//    never a silent drop.  Shed carries an explicit reason; failed means
//    the hardware gave up (ladder exhausted / pool offline) on one of
//    the request's tokens.
//
// Bit-identity contract: activation rows are unit max-abs (workload.hpp)
// and renormalized per token, so the quantizer scale is 1.0 regardless
// of batch composition, and the engine's per-request token digests are
// bit-identical to run_reference()'s solo replay at fault rate 0 —
// continuous batching is numerically invisible.
//
// KV attention (DESIGN.md §17): requests with `kv_attention` run two
// extra per-token products against their growing history of normalized
// output rows — scores = y·Kᵀ (axis kCols) and context =
// softmax(scores)·K (axis kRows) — through the serving backend's
// matmul_kv.  A request's KV handles are derived from its id, so the
// SAME growing operand identity is presented to whichever backend the
// scheduler lands the token on: a backend holding a current resident
// entry appends one row; one that re-trimmed, got quarantined, or never
// saw the request rebuilds from the full history — bit-identically.
// The context rows chain into the request digest, and KV products bill
// into the same product timing window as the projection, so the
// incremental win (and the rebuild cost under escalation) is visible in
// service time.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/health_monitor.hpp"
#include "nn/linear.hpp"
#include "ptc/event_counter.hpp"
#include "serve/backend_pool.hpp"
#include "serve/request.hpp"

namespace pdac::serve {

struct ServingConfig {
  std::size_t max_batch{4};   ///< rows per product on a fully-healthy backend
  std::size_t max_queue{32};  ///< bound on admitted, unfinished requests
  /// Virtual-time charge per prompt token, applied to a request's first
  /// product (prefill is a time/occupancy charge only — decode GEMMs
  /// are the numerics under test and the only events priced).
  std::uint64_t prefill_cycles_per_token{2};
  /// Virtual-time charge per calibration/self-test probe the ladder
  /// burns — recovery costs wall-clock, not just energy.
  std::uint64_t probe_cycles{1};
  /// Model-selection bonus per queued request when the weight set is
  /// already resident in the backend's operand cache.
  double affinity_bonus{0.5};
  /// Backends scoring below `health_floor` × (best score) take no work.
  double health_floor{0.05};
};

/// Per-slot accounting for the run.
struct BackendServeStats {
  std::size_t products{0};
  std::size_t tokens{0};
  std::uint64_t busy_cycles{0};
  bool alive{true};
  bool quarantined{false};           ///< still in probation at run end
  double final_health{0.0};
  ptc::EventCounter events;          ///< data-path events (incl. recovery re-runs)
  faults::HealthSnapshot health;     ///< final monitor snapshot
  faults::DriftSnapshot drift;       ///< final drift-tracker snapshot
  nn::OperandCacheStats kv;          ///< KV-history operand residency/appends
};

struct ServingReport {
  std::vector<RequestRecord> records;  ///< indexed by request id
  std::size_t completed{0};
  std::size_t shed{0};
  std::size_t failed{0};
  std::size_t tokens_emitted{0};   ///< all tokens produced
  std::size_t goodput_tokens{0};   ///< tokens of *completed* requests
  std::uint64_t makespan{0};       ///< last terminal verdict [cycles]
  std::size_t products{0};
  std::size_t throttled_products{0};  ///< run with a clamped (no-re-trim) ladder
  /// Quarantine/readmission activity (BackendPool::tick, DESIGN.md §16).
  std::size_t quarantines{0};
  std::size_t readmissions{0};
  std::size_t canary_probes{0};
  /// Inter-token gaps (first gap is measured from arrival) [cycles].
  std::vector<std::uint64_t> token_gaps;
  /// Arrival → completion latency of completed requests [cycles].
  std::vector<std::uint64_t> request_latencies;
  std::vector<BackendServeStats> backends;

  /// The terminal-verdict audit: no request may be left pending.
  [[nodiscard]] bool reconciled(std::size_t submitted) const {
    return completed + shed + failed == submitted;
  }
};

/// p in [0, 100] percentile of `values` (nearest-rank); 0 when empty.
[[nodiscard]] double percentile(std::vector<std::uint64_t> values, double p);

class ServingEngine {
 public:
  /// `models` are the weight sets requests address by index; held by
  /// reference, must outlive the engine.  Every weight matrix must be
  /// square and match the workload's d_model.
  ServingEngine(BackendPool& pool, const std::vector<nn::Linear>& models,
                ServingConfig cfg = {});

  /// Serve `requests` (sorted by arrival) to termination.  Every
  /// request gets a terminal verdict; the report reconciles exactly.
  [[nodiscard]] ServingReport run(const std::vector<Request>& requests);

 private:
  BackendPool& pool_;
  const std::vector<nn::Linear>& models_;
  ServingConfig cfg_;
};

/// Solo replay for the bit-identity gate: every request decoded alone,
/// in id order, on `backend` — no batching, no scheduling.  Returns
/// per-request records with token digests (timing fields untouched).
[[nodiscard]] std::vector<RequestRecord> run_reference(const std::vector<Request>& requests,
                                                       const std::vector<nn::Linear>& models,
                                                       faults::GuardedBackend& backend);

}  // namespace pdac::serve
