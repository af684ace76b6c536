#include "trace.hpp"

#include <cstdio>

namespace perfbench {

std::uint32_t SpanRecorder::intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::uint32_t SpanRecorder::open(std::uint32_t name) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
  spans_.push_back({name, parent, token_, now_ns(), 0});
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(std::uint32_t index) {
  stack_.pop_back();  // ScopedSpan lifetimes nest, so `index` is the top
  spans_[index].end_ns = now_ns();
}

std::unordered_map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::unordered_map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[names_[s.name]];
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  return out;
}

bool SpanRecorder::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "token\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%u\t%zu\t%ld\t%s\t%lld\t%lld\n", s.token, i,
                 s.parent == kNoParent ? -1L : static_cast<long>(s.parent),
                 names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

TracingBackend::TracingBackend(pdac::nn::GemmBackend& inner, SpanRecorder& rec,
                               std::size_t element_bytes)
    : inner_(inner),
      rec_(rec),
      element_bytes_(element_bytes),
      plain_{"gemm.plain", rec.intern("gemm.plain")},
      scores_{"attention.scores", rec.intern("gemm.kv.scores")},
      context_{"attention.context", rec.intern("gemm.kv.context")},
      unlabelled_{"unlabelled", rec.intern("gemm.cached.unlabelled")} {}

void TracingBackend::add_weight_role(std::uint64_t weight_id, const std::string& role) {
  weight_roles_[weight_id] = Role{"linear." + role, rec_.intern("gemm.cached." + role)};
}

template <class F>
pdac::Matrix TracingBackend::forward(const Role& role, std::uint64_t operand_elems, F&& call) {
  const std::uint64_t macs0 = inner_.events().macs;
  pdac::Matrix c;
  {
    ScopedSpan span(&rec_, role.span);
    c = call();
  }
  events_ = inner_.events();
  RoleWork& w = work_[role.label];
  w.macs += events_.macs - macs0;
  w.operand_bytes += operand_elems * element_bytes_;
  return c;
}

pdac::Matrix TracingBackend::matmul(const pdac::Matrix& a, const pdac::Matrix& b) {
  return forward(plain_, a.size() + b.size(), [&] { return inner_.matmul(a, b); });
}

pdac::Matrix TracingBackend::matmul_cached(const pdac::Matrix& a, const pdac::Matrix& b,
                                           const pdac::nn::WeightHandle& weight) {
  const auto it = weight_roles_.find(weight.id);
  const Role& role = it != weight_roles_.end() ? it->second : unlabelled_;
  return forward(role, a.size() + b.size(),
                 [&] { return inner_.matmul_cached(a, b, weight); });
}

pdac::Matrix TracingBackend::matmul_kv(const pdac::Matrix& a, const pdac::Matrix& kv,
                                       const pdac::nn::KvHandle& handle) {
  const Role& role = handle.axis == pdac::nn::KvAxis::kCols ? scores_ : context_;
  return forward(role, a.size() + kv.size(), [&] { return inner_.matmul_kv(a, kv, handle); });
}

}  // namespace perfbench
