// workload_trace.hpp — GEMM-level operation trace of a transformer
// forward pass, the input to the architecture energy model.
//
// Each traced op records its dimensions, which inference phase it belongs
// to (the x-axis categories of paper Figs. 9–10) and its operand
// residency.  Residency is what differentiates attention from FFN in the
// paper's results: Q·Kᵀ and A·V are *dynamic–dynamic* products whose
// operands were just produced on-chip, so they fetch no weights from
// SRAM, making attention's data-movement share smaller and its relative
// P-DAC savings larger.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/model_config.hpp"
#include "ptc/event_counter.hpp"

namespace pdac::nn {

/// Inference phase an op is charged to (the figures' x-axis).
enum class OpClass {
  kAttention,  ///< QKV projections, Q·Kᵀ, A·V, output projection
  kFfn,        ///< the two feed-forward GEMMs
  kConv,       ///< im2col'd convolutions (CNN workloads, Albireo context)
  kOther,      ///< layernorm/softmax/GELU handled by the digital unit
};

struct GemmOp {
  std::string label;       ///< e.g. "L3.QK^T"
  OpClass op_class{OpClass::kAttention};
  std::size_t m{}, k{}, n{};
  bool static_weights{};   ///< true when the B operand is a pre-trained
                           ///< weight matrix that must be fetched from SRAM
  std::size_t repeats{1};  ///< per-head ops recorded once with a count
  /// Additional elements that must be streamed from memory regardless of
  /// residency class — e.g. the KV-cache reads of decode-phase attention
  /// (dynamic products whose B operand lives in the cache, not on-chip).
  /// Counted PER REPEAT, like m/k/n: total traffic is this × repeats.
  std::size_t extra_movement_elements{0};

  /// Total extra-movement traffic across all repeats.
  [[nodiscard]] std::size_t total_extra_movement_elements() const {
    return extra_movement_elements * repeats;
  }

  [[nodiscard]] std::size_t macs() const { return m * k * n * repeats; }
  /// Elements of A that must be staged per execution (activations).
  [[nodiscard]] std::size_t activation_elements() const { return (m * k + m * n) * repeats; }
  /// Elements of B fetched from weight memory (0 for dynamic operands).
  [[nodiscard]] std::size_t weight_elements() const {
    return static_weights ? k * n * repeats : 0;
  }
  /// Elements moved from memory: the weights, the activations staged for
  /// a static GEMM (dynamic products stay in PTC-local buffers), and the
  /// extra movement of every repeat.
  [[nodiscard]] std::size_t moved_elements() const {
    return weight_elements() + (static_weights ? activation_elements() : 0) +
           total_extra_movement_elements();
  }
  /// How the B operand reaches the array: static weights are broadcast,
  /// dynamic operands converted per DDot (ptc::tile_step_events).
  [[nodiscard]] ptc::Residency residency() const {
    return static_weights ? ptc::Residency::kBroadcast : ptc::Residency::kDynamic;
  }
};

/// Element-wise / normalization work charged to the digital vector unit.
struct VectorOp {
  std::string label;
  OpClass op_class{OpClass::kOther};
  std::size_t elements{};
};

struct WorkloadTrace {
  TransformerConfig config;
  std::vector<GemmOp> gemms;
  std::vector<VectorOp> vector_ops;

  [[nodiscard]] std::size_t total_macs() const;
  [[nodiscard]] std::size_t macs(OpClass c) const;
  [[nodiscard]] std::size_t weight_elements(OpClass c) const;
  [[nodiscard]] std::size_t activation_elements(OpClass c) const;
};

/// Trace one full forward pass of the model.
WorkloadTrace trace_forward(const TransformerConfig& cfg);

std::string to_string(OpClass c);

}  // namespace pdac::nn
