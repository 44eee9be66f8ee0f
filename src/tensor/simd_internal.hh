/**
 * @file
 * Shared plumbing for the SIMD translation units (simd.cc and
 * gemm_kernels.cc): the x86 feature gate, the per-tier function
 * target attributes, and the horizontal-reduction helpers that fix
 * the intra-register lane-combination order.
 *
 * The kernels are compiled with per-function `target` attributes
 * instead of file-level `-mavx*` flags, so a fully portable build
 * (-DOPTIMUS_NATIVE=OFF, the CI configuration) still contains every
 * tier and the choice is made purely at runtime by simd::tier().
 *
 * Raw intrinsics are sanctioned ONLY in the files that include this
 * header (lint rule SIM01).
 */

#ifndef OPTIMUS_TENSOR_SIMD_INTERNAL_HH
#define OPTIMUS_TENSOR_SIMD_INTERNAL_HH

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OPTIMUS_SIMD_X86 1
#else
#define OPTIMUS_SIMD_X86 0
#endif

#if OPTIMUS_SIMD_X86

// GCC 12's avx512fintrin.h builds _mm512_undefined_* from a
// self-initialized local, which -Wmaybe-uninitialized flags wherever
// a reduction intrinsic inlines it. The suppression covers only the
// header's own lines.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

/** AVX2 kernel tier: 8-wide float, FMA, POPCNT for mask counts. */
#define OPTIMUS_TARGET_AVX2 __attribute__((target("avx2,fma,popcnt")))
/** AVX-512 kernel tier: foundation subset only (no DQ/BW/VL). */
#define OPTIMUS_TARGET_AVX512 __attribute__((target("avx512f,popcnt")))

namespace optimus
{
namespace simd
{

/**
 * The shared horizontal reduction: sum the double lanes of an
 * accumulator register pairwise, in one documented order. Every
 * reduction kernel funnels through these two helpers, so a tier's
 * result depends only on its chunk grid and lane count — never on
 * the thread count or any library reduction order.
 *
 * 4 lanes: (l0 + l1) + (l2 + l3).
 */
OPTIMUS_TARGET_AVX2 inline double
hsum4d(__m256d v)
{
    alignas(32) double l[4];
    _mm256_store_pd(l, v);
    return (l[0] + l[1]) + (l[2] + l[3]);
}

/** 8 lanes: ((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7)). */
OPTIMUS_TARGET_AVX512 inline double
hsum8d(__m512d v)
{
    alignas(64) double l[8];
    _mm512_store_pd(l, v);
    return ((l[0] + l[1]) + (l[2] + l[3])) +
           ((l[4] + l[5]) + (l[6] + l[7]));
}

} // namespace simd
} // namespace optimus

#endif // OPTIMUS_SIMD_X86

#endif // OPTIMUS_TENSOR_SIMD_INTERNAL_HH
