// Portable int32 SIMD lane wrapper for the min-plus microkernels
// (DESIGN.md §12). Exactly one backend is active per translation unit:
//
//   AVX2    — 8 lanes, selected when the TU is compiled with -mavx2
//             (src/core/CMakeLists.txt builds kernel_engine_simd.cpp that
//             way when the compiler supports the flag; the runtime CPU check
//             lives in kernel_engine.cpp, outside the AVX2 TU).
//   NEON    — 4 lanes on AArch64/ARM builds.
//   autovec — a plain kWidth-element struct whose ops are fixed-trip-count
//             loops under `#pragma omp simd` (honored via -fopenmp-simd, no
//             OpenMP runtime); the compiler's auto-vectorizer does the rest.
//
// The API is the minimum the kernels need: unaligned load/store, scalar
// broadcast, lane-wise add and signed min, plus kRegisters, the number of
// VI32 values the backend's vector register file holds (the kernel sizes its
// register tile from it). There is deliberately no masked
// or saturating form — kInf = INT32_MAX/4 guarantees that the sum of two
// in-range distances ([0, kInf]) cannot wrap, so an unreachable candidate
// (either operand == kInf) lands at >= kInf and the subsequent min against
// an accumulator that never exceeds kInf is a natural no-op. That is the
// branch-free saturation trick: no per-lane kInf test is ever needed.
#pragma once

#include "util/common.h"

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace gapsp::core::lanes {

#if defined(__AVX2__)

inline constexpr int kWidth = 8;
inline constexpr int kRegisters = 16;  // ymm0–ymm15
inline constexpr const char* kIsa = "avx2";

using VI32 = __m256i;

inline VI32 load(const dist_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store(dist_t* p, VI32 v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline VI32 splat(dist_t x) { return _mm256_set1_epi32(x); }
inline VI32 add(VI32 a, VI32 b) { return _mm256_add_epi32(a, b); }
inline VI32 vmin(VI32 a, VI32 b) { return _mm256_min_epi32(a, b); }

#elif defined(__ARM_NEON)

inline constexpr int kWidth = 4;
inline constexpr int kRegisters = 32;  // v0–v31
inline constexpr const char* kIsa = "neon";

using VI32 = int32x4_t;

inline VI32 load(const dist_t* p) { return vld1q_s32(p); }
inline void store(dist_t* p, VI32 v) { vst1q_s32(p, v); }
inline VI32 splat(dist_t x) { return vdupq_n_s32(x); }
inline VI32 add(VI32 a, VI32 b) { return vaddq_s32(a, b); }
inline VI32 vmin(VI32 a, VI32 b) { return vminq_s32(a, b); }

#else

inline constexpr int kWidth = 8;
// The portable floor: 16 128-bit registers hold 8 of these 8-lane structs.
inline constexpr int kRegisters = 8;
inline constexpr const char* kIsa = "autovec";

struct VI32 {
  dist_t lane[kWidth];
};

inline VI32 load(const dist_t* p) {
  VI32 v;
#pragma omp simd
  for (int i = 0; i < kWidth; ++i) v.lane[i] = p[i];
  return v;
}
inline void store(dist_t* p, VI32 v) {
#pragma omp simd
  for (int i = 0; i < kWidth; ++i) p[i] = v.lane[i];
}
inline VI32 splat(dist_t x) {
  VI32 v;
#pragma omp simd
  for (int i = 0; i < kWidth; ++i) v.lane[i] = x;
  return v;
}
inline VI32 add(VI32 a, VI32 b) {
  VI32 v;
#pragma omp simd
  for (int i = 0; i < kWidth; ++i) v.lane[i] = a.lane[i] + b.lane[i];
  return v;
}
inline VI32 vmin(VI32 a, VI32 b) {
  VI32 v;
#pragma omp simd
  for (int i = 0; i < kWidth; ++i) {
    v.lane[i] = b.lane[i] < a.lane[i] ? b.lane[i] : a.lane[i];
  }
  return v;
}

#endif

}  // namespace gapsp::core::lanes
