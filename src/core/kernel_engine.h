// Kernel engine: the min-plus microkernel behind minplus_accum() (DESIGN.md
// §9, §12). Two kernels exist: `naive`, the reference the conformance and
// fuzz suites compare against, and `simd`, the vector register-tile kernel
// that kAuto runs. minplus_accum() dispatches through the engine, so every
// dense kernel — OOC FW panels, boundary dist4 chains, the in-core baseline —
// picks up the selected kernel. Both are bit-identical: a cell's result is
// the min over the same candidate set, and integer min is order-independent.
#pragma once

#include <cstddef>
#include <string>

#include "util/common.h"

namespace gapsp::core {

enum class KernelVariant {
  kAuto,   ///< kSimd, or kNaive when the CPU fails the vector TU's gate
  kNaive,  ///< scalar r-k-c triple loop (the reference oracle)
  kSimd,   ///< 8×16 lane-vector register tile (AVX2/NEON/autovec)
};

const char* kernel_variant_name(KernelVariant v);

/// Parses "auto" | "naive" | "simd"; throws on anything else, so an unknown
/// `--kernel-variant` name is an error, never a silent fallback.
KernelVariant parse_kernel_variant(const std::string& name);

/// Sets the process-wide variant minplus_accum dispatches to (default
/// kAuto). configure_kernels calls it with ApspOptions::kernel_variant.
void set_kernel_variant(KernelVariant v);

/// The variant minplus_accum actually runs: the configured one, or — when
/// configured kAuto — kSimd, falling back to kNaive when the binary's vector
/// TU was built for AVX2 and this CPU lacks it. Times nothing, so the pick
/// is the same in every run on a given host.
KernelVariant resolved_kernel_variant();

/// Re-measures naive and simd on a 128³ working set for the rel-speed
/// report and returns resolved_kernel_variant(). The measurement decides
/// nothing; kernel_variant_rel_speed() reads it.
KernelVariant autotune_kernel_variant();

/// Measured host speed of `v` relative to kNaive on the 128³ working set
/// (e.g. 2.0 = half the host time per element). 1.0 for kNaive by
/// definition; kAuto reports the variant it resolves to. Measures once per
/// process on first use unless autotune_kernel_variant() ran already.
double kernel_variant_rel_speed(KernelVariant v);

// ---- vector-lane backend introspection (simd_lane.h) ----

/// ISA the simd kernel was compiled against ("avx2" | "neon" | "autovec")
/// and its lane width in dist_t elements.
const char* simd_lane_isa();
int simd_lane_width();
/// True when the simd TU was built with AVX2 code generation — the
/// dispatcher then requires runtime AVX2 support (and falls back to the
/// naive kernel, bit-identically, when the CPU lacks it).
bool simd_kernels_built_avx2();

// ---- variant-explicit kernels (both compute C = min(C, A ⊗ B)) ----

/// The reference oracle: a plain loop that shares no code with simd.
void minplus_accum_naive(dist_t* c, std::size_t ldc, const dist_t* a,
                         std::size_t lda, const dist_t* b, std::size_t ldb,
                         vidx_t nr, vidx_t nk, vidx_t nc);

/// Runs one explicit variant (kAuto resolves first). kSimd requires
/// operands in [0, kInf] — the invariant every distance matrix here
/// satisfies.
void minplus_accum_variant(KernelVariant v, dist_t* c, std::size_t ldc,
                           const dist_t* a, std::size_t lda, const dist_t* b,
                           std::size_t ldb, vidx_t nr, vidx_t nk, vidx_t nc);

namespace detail {

/// Naive triple loop over a sub-rectangle of rows × [c_lo, c_hi) — the
/// remainder path of the vector kernel's ragged row and column tails.
void minplus_scalar_block(dist_t* c, std::size_t ldc, const dist_t* a,
                          std::size_t lda, const dist_t* b, std::size_t ldb,
                          vidx_t r_lo, vidx_t r_hi, vidx_t nk, vidx_t c_lo,
                          vidx_t c_hi);

/// Backend entry point defined in kernel_engine_simd.cpp (possibly built
/// with AVX2 codegen). Call only through minplus_accum_variant, which
/// applies the runtime CPU gate.
void minplus_accum_simd_impl(dist_t* c, std::size_t ldc, const dist_t* a,
                             std::size_t lda, const dist_t* b,
                             std::size_t ldb, vidx_t nr, vidx_t nk,
                             vidx_t nc);

}  // namespace detail

}  // namespace gapsp::core
