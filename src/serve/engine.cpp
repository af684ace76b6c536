#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/require.hpp"
#include "nn/ops.hpp"
#include "serve/workload.hpp"

namespace pdac::serve {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// KV handle ids for request `rid`: derived from the request identity
/// (not allocated), so the engine and run_reference present the same
/// growing-operand identity to their backends, and a token landing on a
/// different backend mid-sequence still names the same sequence.  The
/// high-bit offset keeps them disjoint from nn::next_kv_id allocations.
constexpr std::uint64_t kKvIdBase = 1ull << 32;
[[nodiscard]] nn::KvHandle score_handle(std::uint64_t rid) {
  return {kKvIdBase + rid * 2, nn::KvAxis::kCols};
}
[[nodiscard]] nn::KvHandle ctx_handle(std::uint64_t rid) {
  return {kKvIdBase + rid * 2 + 1, nn::KvAxis::kRows};
}

/// One KV-attention step on `backend`: append the normalized output row
/// `y` to the request's history `kv`, then scores = y·Kᵀ (kCols),
/// softmax(scores/√d), context = scores·K (kRows).  Returns the
/// (1 × d) context row.  History rows are unit max-abs, so the resident
/// operands' scale is a stable 1.0 and healthy-path appends never
/// rebuild on scale.
[[nodiscard]] Matrix kv_attend(faults::GuardedBackend& backend, std::uint64_t rid,
                               Matrix& kv, const std::vector<double>& y) {
  const std::size_t d = y.size();
  const std::size_t t = kv.cols() == d ? kv.rows() : 0;
  if (kv.cols() != d) kv = Matrix(0, d);
  kv.resize(t + 1, d);  // cols constant: resize preserves the history rows
  std::copy(y.begin(), y.end(), kv.row(t).begin());
  Matrix a(1, d);
  std::copy(y.begin(), y.end(), a.row(0).begin());
  Matrix scores = backend.matmul_kv(a, kv, score_handle(rid));
  nn::scale_inplace(scores, 1.0 / std::sqrt(static_cast<double>(d)));
  nn::softmax_rows(scores);
  return backend.matmul_kv(scores, kv, ctx_handle(rid));
}

/// EDF key: deadline (none sorts last), then arrival, then id.
struct EdfKey {
  std::uint64_t deadline;
  std::uint64_t arrival;
  std::uint64_t id;
  [[nodiscard]] bool operator<(const EdfKey& o) const {
    if (deadline != o.deadline) return deadline < o.deadline;
    if (arrival != o.arrival) return arrival < o.arrival;
    return id < o.id;
  }
};

[[nodiscard]] EdfKey edf_key(const Request& r) {
  // Request::kNoDeadline is already the maximum cycle count, so
  // deadline-free requests sort last with no sentinel translation — and
  // a real deadline of 0 (t=0 arrival, tight slack) stays a deadline.
  static_assert(Request::kNoDeadline == kNever);
  return {r.deadline, r.arrival, r.id};
}

}  // namespace

double percentile(std::vector<std::uint64_t> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(values[lo]) +
         frac * (static_cast<double>(values[hi]) - static_cast<double>(values[lo]));
}

ServingEngine::ServingEngine(BackendPool& pool, const std::vector<nn::Linear>& models,
                             ServingConfig cfg)
    : pool_(pool), models_(models), cfg_(cfg) {
  PDAC_REQUIRE(!models_.empty(), "ServingEngine: need at least one weight set");
  PDAC_REQUIRE(cfg_.max_batch > 0 && cfg_.max_queue > 0,
               "ServingEngine: batch and queue bounds must be positive");
  for (const nn::Linear& m : models_) {
    PDAC_REQUIRE(m.weight().rows() == m.weight().cols(),
                 "ServingEngine: decode weight sets must be square");
  }
}

ServingReport ServingEngine::run(const std::vector<Request>& requests) {
  const std::size_t n = requests.size();
  const std::size_t pool_n = pool_.size();

  struct ReqState {
    std::vector<double> x;        ///< current activation (unit max-abs)
    Matrix kv{0, 0};              ///< KV history (kv_attention requests)
    std::size_t tokens_done{0};
    std::uint64_t ready_at{0};    ///< in flight until this time
    std::uint64_t last_emit{0};   ///< previous token time (or arrival)
    bool admitted{false};
  };

  ServingReport rep;
  rep.records.resize(n);
  rep.backends.resize(pool_n);
  std::vector<ReqState> st(n);
  for (std::size_t q = 0; q < n; ++q) {
    const Request& r = requests[q];
    PDAC_REQUIRE(r.model < models_.size(), "ServingEngine: request model out of range");
    PDAC_REQUIRE(r.activation.size() == models_[r.model].weight().rows(),
                 "ServingEngine: activation width must match d_model");
    PDAC_REQUIRE(r.decode_tokens > 0, "ServingEngine: zero-token request");
    PDAC_REQUIRE(q == 0 || requests[q - 1].arrival <= r.arrival,
                 "ServingEngine: requests must be sorted by arrival");
    st[q].x = r.activation;
    st[q].last_emit = r.arrival;
    rep.records[q].tokens_by_backend.assign(pool_n, 0);
  }

  std::vector<std::uint64_t> busy(pool_n, 0);
  std::uint64_t now = 0;
  std::size_t next_arrival = 0;
  std::size_t open = n;       // requests without a terminal verdict
  std::size_t occupancy = 0;  // admitted and unfinished (the bounded queue)
  double est_token_cycles = 0.0;  // measured after the first product

  auto finalize = [&](std::size_t q, Verdict v, ShedReason reason, std::uint64_t t) {
    RequestRecord& rec = rep.records[q];
    PDAC_REQUIRE(rec.verdict == Verdict::kPending, "ServingEngine: double verdict");
    rec.verdict = v;
    rec.shed_reason = reason;
    rec.finished_at = t;
    if (requests[q].kv_attention) {
      // Sequence retirement: drop the resident prepared operands on
      // every backend that might hold them.
      for (std::size_t b = 0; b < pool_n; ++b) {
        pool_.backend(b).release_kv(score_handle(requests[q].id).id);
        pool_.backend(b).release_kv(ctx_handle(requests[q].id).id);
      }
    }
    if (st[q].admitted) --occupancy;
    --open;
    switch (v) {
      case Verdict::kCompleted: ++rep.completed; break;
      case Verdict::kShed: ++rep.shed; break;
      case Verdict::kFailed: ++rep.failed; break;
      case Verdict::kPending: break;  // unreachable
    }
    rep.makespan = std::max(rep.makespan, t);
  };

  auto prefill_charge = [&](const Request& r) {
    return static_cast<std::uint64_t>(r.prompt_len) * cfg_.prefill_cycles_per_token;
  };

  auto run_batch = [&](std::size_t b, std::size_t model, const std::vector<std::size_t>& batch) {
    faults::GuardedBackend& be = pool_.backend(b);
    const nn::Linear& lin = models_[model];
    const std::size_t d = lin.weight().rows();

    Matrix a(batch.size(), d);
    for (std::size_t r = 0; r < batch.size(); ++r) {
      const std::vector<double>& x = st[batch[r]].x;
      std::copy(x.begin(), x.end(), a.row(r).begin());
    }

    pool_.begin_product(b, now);
    const faults::HealthSnapshot snap0 = be.monitor().snapshot();
    const std::uint64_t cyc0 = be.events().cycles;
    const Matrix c = be.matmul_cached(a, lin.weight(), lin.weight_handle());
    // Per-request KV attention products, in deterministic row order and
    // inside the product's timing window, so the incremental-vs-rebuild
    // cost difference lands in service time.  The normalized output row
    // is staged here (it both extends the history and seeds the next
    // token); rows that fail normalization skip their KV step.
    std::vector<std::vector<double>> ynorm(batch.size());
    std::vector<Matrix> kvctx(batch.size());
    std::vector<char> row_ok(batch.size(), 1);
    for (std::size_t r = 0; r < batch.size(); ++r) {
      const std::size_t q = batch[r];
      ynorm[r].assign(c.row(r).begin(), c.row(r).end());
      row_ok[r] = normalize_unit_max(ynorm[r]) ? 1 : 0;
      if (row_ok[r] == 1 && requests[q].kv_attention) {
        kvctx[r] = kv_attend(be, requests[q].id, st[q].kv, ynorm[r]);
      }
    }
    const faults::HealthSnapshot snap1 = be.monitor().snapshot();
    const std::uint64_t cyc1 = be.events().cycles;
    pool_.end_product(b, snap1.retrims - snap0.retrims);

    // Service time: the data-path cycles this product actually consumed
    // (recovery re-runs included) plus the ladder's probe charges plus
    // prefill occupancy for first-token requests.
    std::uint64_t service = (cyc1 - cyc0) +
                            cfg_.probe_cycles * (snap1.probe_events - snap0.probe_events);
    for (const std::size_t q : batch) {
      if (st[q].tokens_done == 0) service += prefill_charge(requests[q]);
    }
    service = std::max<std::uint64_t>(service, 1);
    const std::uint64_t finish = now + service;
    busy[b] = finish;
    est_token_cycles = static_cast<double>(cyc1 - cyc0) / static_cast<double>(batch.size());

    BackendServeStats& bs = rep.backends[b];
    ++bs.products;
    bs.busy_cycles += service;
    ++rep.products;

    // A product the ladder gave up on (or that went fully offline
    // mid-run) yields untrustworthy rows: every rider fails, hard —
    // explicitly, not silently.
    const bool gave_up = snap1.unrecovered > snap0.unrecovered;
    const bool offline = !pool_.alive(b);
    for (std::size_t r = 0; r < batch.size(); ++r) {
      const std::size_t q = batch[r];
      if (gave_up || offline) {
        finalize(q, Verdict::kFailed, ShedReason::kNone, finish);
        continue;
      }
      RequestRecord& rec = rep.records[q];
      rec.digest = fnv1a(c.row(r), rec.digest);  // digest the raw row
      if (kvctx[r].size() > 0) {
        // KV witness: the context row seen through the incremental
        // prepared path chains in after the projection row.
        rec.digest = fnv1a(kvctx[r].row(0), rec.digest);
      }
      if (row_ok[r] == 0) {
        finalize(q, Verdict::kFailed, ShedReason::kNone, finish);
        continue;
      }
      st[q].x = std::move(ynorm[r]);
      ++st[q].tokens_done;
      ++rec.tokens_done;
      ++rec.tokens_by_backend[b];
      ++bs.tokens;
      ++rep.tokens_emitted;
      if (rec.first_token_at == 0) rec.first_token_at = finish;
      rep.token_gaps.push_back(finish - st[q].last_emit);
      st[q].last_emit = finish;
      st[q].ready_at = finish;
      if (st[q].tokens_done == requests[q].decode_tokens) {
        rec.late = requests[q].has_deadline() && finish > requests[q].deadline;
        finalize(q, Verdict::kCompleted, ShedReason::kNone, finish);
        rep.goodput_tokens += st[q].tokens_done;
        rep.request_latencies.push_back(finish - requests[q].arrival);
      }
    }
  };

  while (open > 0) {
    // 1. Admission: arrivals up to `now` pass the bounded queue and the
    //    deadline feasibility check, or are shed with the reason.
    while (next_arrival < n && requests[next_arrival].arrival <= now) {
      const std::size_t q = next_arrival++;
      const Request& r = requests[q];
      if (occupancy >= cfg_.max_queue) {
        finalize(q, Verdict::kShed, ShedReason::kQueueFull, now);
        continue;
      }
      if (r.has_deadline() && est_token_cycles > 0.0) {
        const double eta = static_cast<double>(now) +
                           static_cast<double>(prefill_charge(r)) +
                           static_cast<double>(r.decode_tokens) * est_token_cycles;
        if (eta > static_cast<double>(r.deadline)) {
          finalize(q, Verdict::kShed, ShedReason::kAdmissionDeadline, now);
          continue;
        }
      }
      st[q].admitted = true;
      ++occupancy;
      rep.records[q].admitted_at = now;
    }

    // 1b. Quarantine housekeeping: probation triggers and due canary
    //     probes run before placement sees the scores, so a backend that
    //     just crossed its drift threshold takes no further work.
    pool_.tick(now);

    // 2. Placement: health-proportional batch caps over the free slots.
    //    Quarantined slots score 0 — probation means no serving work.
    double best_score = 0.0;
    std::vector<double> score(pool_n, 0.0);
    for (std::size_t b = 0; b < pool_n; ++b) {
      score[b] = pool_.in_rotation(b) ? pool_.health_score(b) : 0.0;
      best_score = std::max(best_score, score[b]);
    }

    // Degenerate pool — every backend scoring 0 (all fenced mid-storm):
    // placement must stall *explicitly*.  The proportional cap below
    // divides by best_score, and running it here would be 0/0 → NaN →
    // llround, which is UB.  With placement skipped, step 3 either
    // advances time to the next event or fails the stranded requests
    // with an explicit verdict.
    const bool placeable = best_score > 0.0 && std::isfinite(best_score);

    bool dispatched = false;
    for (std::size_t b = 0; placeable && b < pool_n; ++b) {
      if (busy[b] > now) continue;
      if (score[b] <= 0.0 || score[b] < cfg_.health_floor * best_score) continue;
      const std::size_t cap = std::min(
          cfg_.max_batch,
          std::max<std::size_t>(
              1, static_cast<std::size_t>(
                     std::llround(static_cast<double>(cfg_.max_batch) * score[b] / best_score))));

      // Eligible = admitted, unfinished, not in flight.  Requests whose
      // deadline already expired are shed here, before they cost a
      // product — the deadline-missed path.
      std::vector<std::size_t> eligible;
      for (std::size_t q = 0; q < n; ++q) {
        if (rep.records[q].verdict != Verdict::kPending || !st[q].admitted) continue;
        if (st[q].ready_at > now) continue;
        if (requests[q].has_deadline() && now > requests[q].deadline) {
          finalize(q, Verdict::kShed, ShedReason::kDeadlineMissed, now);
          continue;
        }
        eligible.push_back(q);
      }
      if (eligible.empty()) continue;

      // Model choice: queue pressure per weight set, boosted when this
      // backend already holds the prepared operand (cache affinity).
      std::vector<std::size_t> pressure(models_.size(), 0);
      for (const std::size_t q : eligible) ++pressure[requests[q].model];
      const nn::OperandCache* cache = pool_.backend(b).operand_cache();
      const std::uint64_t epoch = pool_.bank(b).epoch();
      double best_model_score = -1.0;
      std::size_t model = 0;
      for (std::size_t m = 0; m < models_.size(); ++m) {
        if (pressure[m] == 0) continue;
        double s = static_cast<double>(pressure[m]);
        const nn::WeightHandle h = models_[m].weight_handle();
        if (cache != nullptr && cache->contains(h.id, h.version, epoch)) {
          s += cfg_.affinity_bonus * static_cast<double>(pressure[m]);
        }
        if (s > best_model_score) {
          best_model_score = s;
          model = m;
        }
      }

      // EDF within the chosen weight set, truncated to the health cap.
      std::vector<std::size_t> batch;
      for (const std::size_t q : eligible) {
        if (requests[q].model == model) batch.push_back(q);
      }
      std::sort(batch.begin(), batch.end(), [&](std::size_t lhs, std::size_t rhs) {
        return edf_key(requests[lhs]) < edf_key(requests[rhs]);
      });
      if (batch.size() > cap) batch.resize(cap);

      run_batch(b, model, batch);
      dispatched = true;
    }
    if (open == 0) break;

    // 3. Advance virtual time to the next event (arrival or product
    //    completion).  No event and nothing dispatched means the
    //    remaining requests are unservable — the pool is offline or
    //    health-floored — and they fail *explicitly*.
    std::uint64_t next = kNever;
    if (next_arrival < n) next = std::min(next, requests[next_arrival].arrival);
    for (std::size_t b = 0; b < pool_n; ++b) {
      if (busy[b] > now) next = std::min(next, busy[b]);
    }
    // Pending canary probes are events too: a fully-quarantined pool
    // waits for its probes (and the readmission they can earn) instead
    // of failing the queue.
    next = std::min(next, pool_.next_probe_at());
    if (next != kNever && next > now) {
      now = next;
    } else if (!dispatched) {
      for (std::size_t q = 0; q < n; ++q) {
        if (rep.records[q].verdict == Verdict::kPending) {
          finalize(q, Verdict::kFailed, ShedReason::kNone, now);
        }
      }
      break;
    }
  }

  PDAC_REQUIRE(rep.reconciled(n), "ServingEngine: verdicts failed to reconcile");
  rep.throttled_products = pool_.throttled_products();
  rep.quarantines = pool_.quarantines();
  rep.readmissions = pool_.readmissions();
  rep.canary_probes = pool_.canary_probes();
  for (std::size_t b = 0; b < pool_n; ++b) {
    BackendServeStats& bs = rep.backends[b];
    bs.alive = pool_.alive(b);
    bs.quarantined = pool_.quarantined(b);
    bs.final_health = pool_.health_score(b);
    bs.events = pool_.backend(b).events();
    bs.health = pool_.backend(b).monitor().snapshot();
    bs.drift = pool_.backend(b).drift().snapshot();
    if (const nn::OperandCache* kv = pool_.backend(b).kv_cache(); kv != nullptr) {
      bs.kv = kv->stats();
    }
  }
  return rep;
}

std::vector<RequestRecord> run_reference(const std::vector<Request>& requests,
                                         const std::vector<nn::Linear>& models,
                                         faults::GuardedBackend& backend) {
  std::vector<RequestRecord> records(requests.size());
  for (std::size_t q = 0; q < requests.size(); ++q) {
    const Request& r = requests[q];
    PDAC_REQUIRE(r.model < models.size(), "run_reference: request model out of range");
    const nn::Linear& lin = models[r.model];
    RequestRecord& rec = records[q];
    std::vector<double> x = r.activation;
    Matrix a(1, x.size());
    Matrix kv(0, 0);
    rec.verdict = Verdict::kCompleted;
    for (std::size_t t = 0; t < r.decode_tokens; ++t) {
      std::copy(x.begin(), x.end(), a.row(0).begin());
      const Matrix c = backend.matmul_cached(a, lin.weight(), lin.weight_handle());
      rec.digest = fnv1a(c.row(0), rec.digest);
      std::vector<double> y(c.row(0).begin(), c.row(0).end());
      const bool ok = normalize_unit_max(y);
      if (ok && r.kv_attention) {
        // Identical KV step and digest chaining to run_batch: same
        // handle ids, same product order, so the engine's incremental
        // path must reproduce these bits exactly.
        const Matrix ctx = kv_attend(backend, r.id, kv, y);
        rec.digest = fnv1a(ctx.row(0), rec.digest);
      }
      if (!ok) {
        rec.verdict = Verdict::kFailed;
        break;
      }
      x = std::move(y);
      ++rec.tokens_done;
    }
    if (r.kv_attention) {
      backend.release_kv(score_handle(r.id).id);
      backend.release_kv(ctx_handle(r.id).id);
    }
  }
  return records;
}

}  // namespace pdac::serve
