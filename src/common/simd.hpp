// simd.hpp — feature-detected SIMD dot-product primitives for the fused
// kernel's fast tier (DESIGN.md §13), which both photonic executors run:
// ptc::PhotonicGemm and the faults-layer lane executor.
//
// The fused kernel's scalar tier is bit-exact against the device graph
// and therefore pinned to its exact floating-point operation sequence —
// one serial accumulation chain per rail, no reassociation.  The fast
// tier (ptc::ExecutionPath::kKernelSimd) trades that pin for speed: it
// reduces with explicit 4/8-wide blocking, which reassociates the sums
// into independent partial accumulators.  These primitives are that
// blocking, kept in one place so the reassociation policy is uniform:
//
//   * on x86-64 with AVX2+FMA (detected at runtime, compiled via
//     per-function target attributes so the base build stays portable):
//     two 4-wide fused-multiply-add chains over 8-element steps, one more
//     4-element step into the first chain when 4 elements remain,
//     horizontally folded as (l0+l1)+(l2+l3) over the chains' sum, scalar
//     tail;
//   * everywhere else: an explicitly 4-way-unrolled scalar loop with
//     four independent partial sums — the shape autovectorizers take at
//     -O2/-O3 with baseline SSE2/NEON — folded the same way.
//
// dot4 is four dot calls, bit for bit, on every ISA: it only shares the
// loads of x.  So one output's value never depends on which column block
// of a tile it falls in, and a tile of any width folds in one fixed order.
//
// Either way the result differs from the single-chain reference only by
// floating-point reassociation (and FMA's skipped intermediate
// roundings), i.e. by O(ε·n·|x|·|y|) — exactly the error family the
// ABFT guard band (ptc::guard_tolerance) is calibrated to absorb.  The
// dispatch is deterministic per machine: identical inputs give identical
// bits run-to-run; only cross-ISA runs may differ, and only in-band.
//
// quantize is the quantizer's rounding rule over a whole span, exact on
// every ISA (DESIGN.md §18).  The rule itself is quantize_code, the one
// reference line converters::Quantizer::encode runs: clamp to [−1, 1]
// (NaN passes), scale by max_code, std::lround, narrow to int32, clamp.
// After the clamp |y| ≤ max_code ≤ 32767, so trunc(y) and y − trunc(y)
// are exact, and lround(y) is trunc(y) moved one step away from zero
// exactly when |y − trunc(y)| ≥ ½: two compares instead of a libm call.
// The AVX2 body evaluates that with truncation (never the ties-to-even
// rounding mode) and no FMA, which could fuse y − trunc(y) with the
// product y and see the unrounded value.  Non-finite inputs keep the
// reference's bits: lround(NaN) is LONG_MIN here, which the narrowing
// makes code 0, and ±Inf clamps to ±max_code.  The scalar tail and the
// portable body call quantize_code itself, so no second rule exists.
//
// serial_dots is the ABFT guard's reference side (ptc::verify_tile),
// exact on every ISA like quantize: each chain is one serial add chain in
// ascending position, not a blocked dot.  The AVX2 body runs up to eight
// chains at once, one chain per vector lane, so the serial order is kept
// inside each lane and only independent chains share an instruction.
// One multiply forms four consecutive products of one chain, a 4×4
// transpose puts them in position order across four chains, and the adds
// go one position at a time: every lane executes the scalar loop's exact
// IEEE multiply and add sequence.  No FMA (it would skip the product's
// rounding).  Eight chains run in two accumulators; leftover chains fill
// a padded group of 4 or 8 whose spare lanes repeat a real chain and are
// dropped, so no chain runs alone.  Tail positions and the portable body
// are the scalar loop itself.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace pdac::simd {

/// Name of the instruction set the primitives dispatch to on this
/// machine ("avx2+fma" or "portable") — for bench/report provenance.
[[nodiscard]] const char* active_isa();

/// True when the AVX2+FMA path is live (x86 with runtime support).
[[nodiscard]] bool has_fast_path();

/// Blocked dot product Σ_p x[p]·y[p] (reassociated; see header).
[[nodiscard]] double dot(const double* x, const double* y, std::size_t n);

/// Blocked Σ_p x[p]² — the quadratic-form row/column terms.
[[nodiscard]] double dot_self(const double* x, std::size_t n);

/// Doubles of dot_self's resumable state: its blocked accumulators (the
/// two 4-wide chains on AVX2, the four partial sums of the portable path
/// in the first four).
inline constexpr std::size_t kDotSelfState = 8;

/// dot_self(x, n) resumed from an earlier length m ≤ n: `state` holds the
/// accumulators a previous call left for x[0, m) (all zero for m = 0).
/// Advances them over the whole blocks of x up to n, then finishes with the
/// 4-step, the fold and the tail as dot_self does, so the result equals
/// dot_self(x, n) bit for bit while reading only x[m − m mod block, n).
/// Blocks are 8 elements on AVX2 and 4 on the portable path.
[[nodiscard]] double dot_self_resume(const double* x, std::size_t m, std::size_t n,
                                     double* state);

/// Four dots sharing one x row: out[b] == dot(x, y[b], n) bit for bit on
/// every ISA.  One load of x feeds all four columns, the fast tier's
/// tile-blocking shape.
void dot4(const double* x, const double* const y[4], std::size_t n, double out[4]);

/// `chains` serial dots: out[c] is what `a = 0.0; for p ascending:
/// a += x[c][p] * y[c][p];` returns — bit for bit for every non-NaN result,
/// and NaN exactly where that loop gives NaN (payloads may differ).  The
/// chains may share pointers (the ABFT column lanes share one x).
void serial_dots(const double* const* x, const double* const* y, std::size_t chains,
                 std::size_t n, double* out);

/// The quantizer's rounding rule for one value (see header): the code of
/// r ∈ [−1, 1] on the symmetric grid of ±max_code, saturating outside.
[[nodiscard]] inline std::int32_t quantize_code(double r, std::int32_t max_code) {
  const double clamped = std::clamp(r, -1.0, 1.0);
  const auto code = static_cast<std::int32_t>(std::lround(clamped * max_code));
  return std::clamp(code, -max_code, max_code);
}

/// codes[i] = quantize_code(in[i] / divisor, max_code) for every i < n, bit
/// for bit on every ISA.  A divisor of 1 skips the division (x / 1 == x
/// for every non-NaN x).  in and codes may not overlap.
void quantize(const double* in, std::size_t n, double divisor, std::int32_t max_code,
              std::int32_t* codes);

}  // namespace pdac::simd
