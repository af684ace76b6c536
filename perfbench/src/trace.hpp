// trace.hpp — in-memory spans recorded from the benchmark's own files,
// and the pass-through backend that records one around every GEMM call
// the nn layers make.
//
// A span is (name, start, end, parent, token).  Spans nest strictly —
// the decode loop is single-threaded, and the GEMM engine's tile workers
// record nothing — so a span's self time is its duration minus the sum
// of its children's durations.  Spans stay in memory until write_tsv()
// at the end of the run.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "nn/backend.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  /// Stable id of a span name.
  std::uint32_t intern(const std::string& name);

  void set_token(std::uint32_t token) { token_ = token; }

  /// Open a span under the innermost open span; returns its index.
  std::uint32_t open(std::uint32_t name);
  /// Close the innermost open span, which is `index`.
  void close(std::uint32_t index);

  /// Per-name totals over every closed span: duration and self time [ns].
  struct Totals {
    std::int64_t total_ns{0};
    std::int64_t self_ns{0};
  };
  [[nodiscard]] std::unordered_map<std::string, Totals> totals() const;

  /// Write one line per span: token, index, parent, name, start, end [ns].
  bool write_tsv(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint32_t token;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::uint32_t token_{0};
};

/// Records one span for its lifetime; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::uint32_t name)
      : rec_(rec), index_(rec != nullptr ? rec->open(name) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t index_;
};

/// Pass-through GemmBackend: forwards every call to `inner`, records a
/// span labelled by role around it, and attributes the call's simulated
/// MACs and operand bytes to that role.  Weight roles come from the
/// WeightHandle ids registered with add_weight_role(); KV roles from the
/// KvHandle's axis.  Events and cache stats are the inner backend's.
class TracingBackend final : public pdac::nn::GemmBackend {
 public:
  TracingBackend(pdac::nn::GemmBackend& inner, SpanRecorder& rec, std::size_t element_bytes);

  void add_weight_role(std::uint64_t weight_id, const std::string& role);

  [[nodiscard]] pdac::Matrix matmul(const pdac::Matrix& a, const pdac::Matrix& b) override;
  [[nodiscard]] pdac::Matrix matmul_cached(const pdac::Matrix& a, const pdac::Matrix& b,
                                           const pdac::nn::WeightHandle& weight) override;
  [[nodiscard]] pdac::Matrix matmul_kv(const pdac::Matrix& a, const pdac::Matrix& kv,
                                       const pdac::nn::KvHandle& handle) override;
  void release_kv(std::uint64_t id) override { inner_.release_kv(id); }
  [[nodiscard]] std::string name() const override { return "traced/" + inner_.name(); }
  [[nodiscard]] const pdac::nn::OperandCache* operand_cache() const override {
    return inner_.operand_cache();
  }
  [[nodiscard]] const pdac::nn::KvPreparedCache* kv_cache() const override {
    return inner_.kv_cache();
  }
  [[nodiscard]] const pdac::nn::GuardStats* guard_stats() const override {
    return inner_.guard_stats();
  }

  /// Simulated MACs and prepared-operand bytes (A and B sides, from
  /// shapes × the tier's element size) per role since construction.
  struct RoleWork {
    std::uint64_t macs{0};
    std::uint64_t operand_bytes{0};
  };
  [[nodiscard]] const std::unordered_map<std::string, RoleWork>& work() const { return work_; }

 private:
  struct Role {
    std::string label;
    std::uint32_t span;
  };
  template <class F>
  pdac::Matrix forward(const Role& role, std::uint64_t operand_elems, F&& call);

  pdac::nn::GemmBackend& inner_;
  SpanRecorder& rec_;
  std::size_t element_bytes_;
  std::unordered_map<std::uint64_t, Role> weight_roles_;
  Role plain_, scores_, context_, unlabelled_;
  std::unordered_map<std::string, RoleWork> work_;
};

}  // namespace perfbench
