#include "tensor/simd.hh"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "tensor/simd_internal.hh"
#include "util/logging.hh"

/*
 * Per-tier vector primitives. Layout of this file:
 *
 *   1. tier detection / OPTIMUS_SIMD resolution / setTier
 *   2. Scalar kernels — verbatim the loops the compression code,
 *      the Adam optimizer and the all-reduce combine used before
 *      dispatch existed (bit-exact baseline)
 *   3. AVX2 kernels (8-wide, target attribute, no -mavx2 needed)
 *   4. AVX-512 kernels (16-wide, avx512f subset only)
 *   5. public dispatch wrappers
 *
 * Determinism: every reduction keeps a fixed number of double-lane
 * accumulators, combines adjacent accumulator pairs lanewise, and
 * funnels the final register through hsum4d/hsum8d
 * (simd_internal.hh), then appends the scalar tail in element order.
 * Nothing here depends on OPTIMUS_THREADS — callers parallelize over
 * shape-derived chunk grids and invoke these on each chunk.
 *
 * This translation unit is compiled with -ffp-contract=off (see
 * tensor/CMakeLists.txt) so the scalar loops and tails can never be
 * FMA-contracted; fused operations appear only where an explicit
 * intrinsic asks for them. That keeps the "lane-exact across tiers"
 * guarantees of simd.hh true in every build configuration.
 */

namespace optimus
{
namespace simd
{

// ----------------------------------------------------------------
// Tier detection and selection
// ----------------------------------------------------------------

namespace
{

Tier
detectCap()
{
#if OPTIMUS_SIMD_X86
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("popcnt"))
        return Tier::Avx512;
    if (__builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("fma") &&
        __builtin_cpu_supports("popcnt"))
        return Tier::Avx2;
#endif
    return Tier::Scalar;
}

/** Active tier; -1 until first resolution. */
std::atomic<int> g_tier{-1};

Tier
resolveFromEnv()
{
    const Tier best = cap();
    const char *env = std::getenv("OPTIMUS_SIMD");
    if (env == nullptr || *env == '\0')
        return best;
    Tier want;
    if (!parseTier(env, want))
    {
        warn("OPTIMUS_SIMD=%s is not scalar|avx2|avx512|auto; "
             "using %s",
             env, tierName(best));
        return best;
    }
    if (!supported(want))
    {
        warn("OPTIMUS_SIMD=%s not supported by this CPU; clamping "
             "to %s",
             env, tierName(best));
        return best;
    }
    return want;
}

} // namespace

Tier
cap()
{
    static const Tier t = detectCap();
    return t;
}

bool
supported(Tier t)
{
    return static_cast<int>(t) <= static_cast<int>(cap());
}

Tier
tier()
{
    int t = g_tier.load(std::memory_order_relaxed);
    if (t < 0)
    {
        const Tier resolved = resolveFromEnv();
        g_tier.store(static_cast<int>(resolved),
                     std::memory_order_relaxed);
        return resolved;
    }
    return static_cast<Tier>(t);
}

void
setTier(Tier t)
{
    if (!supported(t))
    {
        warn("setTier(%s) not supported by this CPU; clamping to %s",
             tierName(t), tierName(cap()));
        t = cap();
    }
    g_tier.store(static_cast<int>(t), std::memory_order_relaxed);
}

const char *
tierName(Tier t)
{
    switch (t)
    {
    case Tier::Avx512:
        return "avx512";
    case Tier::Avx2:
        return "avx2";
    case Tier::Scalar:
    default:
        return "scalar";
    }
}

bool
parseTier(const char *name, Tier &out)
{
    if (name == nullptr)
        return false;
    if (std::strcmp(name, "scalar") == 0)
        out = Tier::Scalar;
    else if (std::strcmp(name, "avx2") == 0)
        out = Tier::Avx2;
    else if (std::strcmp(name, "avx512") == 0)
        out = Tier::Avx512;
    else if (std::strcmp(name, "auto") == 0)
        out = cap();
    else
        return false;
    return true;
}

// ----------------------------------------------------------------
// Scalar kernels — the pre-dispatch loops, bit for bit
// ----------------------------------------------------------------

namespace
{

double
dotScalar(const float *x, const float *y, int64_t n)
{
    double s = 0.0;
    for (int64_t i = 0; i < n; ++i)
        s += static_cast<double>(x[i]) * y[i];
    return s;
}

void
subScaledScalar(float *y, const float *x, float a, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] -= a * x[i];
}

void
scaleScalar(float *x, float a, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        x[i] *= a;
}

void
absScalar(float *dst, const float *src, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        dst[i] = std::fabs(src[i]);
}

void
absDivScalar(float *dst, const float *src, float scale, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        dst[i] = std::fabs(src[i]) / scale;
}

void
signedSumsScalar(const float *src, int64_t n, double &pos_sum,
                 double &neg_sum, int64_t &pos_count,
                 int64_t &neg_count)
{
    double ps = 0.0;
    double ns = 0.0;
    int64_t pc = 0;
    int64_t nc = 0;
    for (int64_t i = 0; i < n; ++i)
    {
        if (src[i] >= 0.0f)
        {
            ps += static_cast<double>(src[i]);
            ++pc;
        }
        else
        {
            ns += static_cast<double>(src[i]);
            ++nc;
        }
    }
    pos_sum = ps;
    neg_sum = ns;
    pos_count = pc;
    neg_count = nc;
}

void
selectBySignScalar(float *dst, const float *src, float pos,
                   float neg, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        dst[i] = src[i] >= 0.0f ? pos : neg;
}

int64_t
keepAboveScalar(float *dst, const float *src, const float *mag,
                float thresh, int64_t n)
{
    int64_t kept = 0;
    for (int64_t i = 0; i < n; ++i)
    {
        if (mag[i] > thresh)
        {
            dst[i] = src[i];
            ++kept;
        }
    }
    return kept;
}

void
adamScalar(float *m, float *v, float *g, float *w, int64_t n,
           float beta1, float beta2, float alpha, float eps, bool zero_g)
{
    for (int64_t j = 0; j < n; ++j)
    {
        m[j] = beta1 * m[j] + (1.0f - beta1) * g[j];
        v[j] = beta2 * v[j] + (1.0f - beta2) * g[j] * g[j];
        w[j] -= alpha * m[j] / (std::sqrt(v[j]) + eps);
        if (zero_g)
            g[j] = 0.0f;
    }
}

/** One element of rankCombine (also every vector tier's tail). */
inline void
rankCombineAt(float *const *ptrs, int ranks, int64_t k, double scale)
{
    double acc = 0.0;
    for (int d = 0; d < ranks; ++d)
        acc += ptrs[d][k];
    const float val = static_cast<float>(acc * scale);
    for (int d = 0; d < ranks; ++d)
        ptrs[d][k] = val;
}

void
rankCombineScalar(float *const *ptrs, int ranks, int64_t offset,
                  int64_t n, double scale)
{
    for (int64_t k = offset; k < offset + n; ++k)
        rankCombineAt(ptrs, ranks, k, scale);
}

constexpr float kGeluSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCoeff = 0.044715f;

/** GELU with libm's tanh — the nn/activation loops, verbatim. */
void
geluScalar(const float *x, float *y, float *dydx, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
    {
        const float xi = x[i];
        const float t = std::tanh(
            kGeluSqrt2OverPi * (xi + kGeluCoeff * xi * xi * xi));
        y[i] = 0.5f * xi * (1.0f + t);
        if (dydx == nullptr)
            continue;
        const float sech2 = 1.0f - t * t;
        const float dinner =
            kGeluSqrt2OverPi * (1.0f + 3.0f * kGeluCoeff * xi * xi);
        dydx[i] = 0.5f * (1.0f + t) + 0.5f * xi * sech2 * dinner;
    }
}

#if OPTIMUS_SIMD_X86

// ----------------------------------------------------------------
// AVX2 kernels (8 floats / 4 doubles per register)
// ----------------------------------------------------------------

OPTIMUS_TARGET_AVX2 double
dotAvx2(const float *x, const float *y, int64_t n)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
    {
        acc0 = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm_loadu_ps(x + i)),
            _mm256_cvtps_pd(_mm_loadu_ps(y + i)), acc0);
        acc1 = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm_loadu_ps(x + i + 4)),
            _mm256_cvtps_pd(_mm_loadu_ps(y + i + 4)), acc1);
        acc2 = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm_loadu_ps(x + i + 8)),
            _mm256_cvtps_pd(_mm_loadu_ps(y + i + 8)), acc2);
        acc3 = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm_loadu_ps(x + i + 12)),
            _mm256_cvtps_pd(_mm_loadu_ps(y + i + 12)), acc3);
    }
    double s = hsum4d(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                    _mm256_add_pd(acc2, acc3)));
    for (; i < n; ++i)
        s += static_cast<double>(x[i]) * y[i];
    return s;
}

OPTIMUS_TARGET_AVX2 void
subScaledAvx2(float *y, const float *x, float a, int64_t n)
{
    const __m256 av = _mm256_set1_ps(a);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
    {
        const __m256 prod =
            _mm256_mul_ps(av, _mm256_loadu_ps(x + i));
        _mm256_storeu_ps(
            y + i, _mm256_sub_ps(_mm256_loadu_ps(y + i), prod));
    }
    for (; i < n; ++i)
        y[i] -= a * x[i];
}

OPTIMUS_TARGET_AVX2 void
scaleAvx2(float *x, float a, int64_t n)
{
    const __m256 av = _mm256_set1_ps(a);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(x + i,
                         _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
    for (; i < n; ++i)
        x[i] *= a;
}

/** Sign-bit clear mask — fabs as a bit operation, like the FPU. */
OPTIMUS_TARGET_AVX2 inline __m256
absMask256()
{
    return _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
}

OPTIMUS_TARGET_AVX2 void
absAvx2(float *dst, const float *src, int64_t n)
{
    const __m256 mask = absMask256();
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            dst + i, _mm256_and_ps(mask, _mm256_loadu_ps(src + i)));
    for (; i < n; ++i)
        dst[i] = std::fabs(src[i]);
}

OPTIMUS_TARGET_AVX2 void
absDivAvx2(float *dst, const float *src, float scale, int64_t n)
{
    const __m256 mask = absMask256();
    const __m256 sv = _mm256_set1_ps(scale);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
    {
        const __m256 av =
            _mm256_and_ps(mask, _mm256_loadu_ps(src + i));
        _mm256_storeu_ps(dst + i, _mm256_div_ps(av, sv));
    }
    for (; i < n; ++i)
        dst[i] = std::fabs(src[i]) / scale;
}

OPTIMUS_TARGET_AVX2 void
signedSumsAvx2(const float *src, int64_t n, double &pos_sum,
               double &neg_sum, int64_t &pos_count,
               int64_t &neg_count)
{
    const __m256 zero = _mm256_setzero_ps();
    __m256d pacc0 = _mm256_setzero_pd();
    __m256d pacc1 = _mm256_setzero_pd();
    __m256d nacc0 = _mm256_setzero_pd();
    __m256d nacc1 = _mm256_setzero_pd();
    int64_t pc = 0;
    int64_t nc = 0;
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
    {
        const __m256 v = _mm256_loadu_ps(src + i);
        const __m256 ge = _mm256_cmp_ps(v, zero, _CMP_GE_OQ);
        // Masked-out lanes become +0.0, the additive identity for
        // every value these accumulators can hold.
        const __m256 pos = _mm256_and_ps(ge, v);
        const __m256 neg = _mm256_andnot_ps(ge, v);
        pacc0 = _mm256_add_pd(
            pacc0, _mm256_cvtps_pd(_mm256_castps256_ps128(pos)));
        pacc1 = _mm256_add_pd(
            pacc1, _mm256_cvtps_pd(_mm256_extractf128_ps(pos, 1)));
        nacc0 = _mm256_add_pd(
            nacc0, _mm256_cvtps_pd(_mm256_castps256_ps128(neg)));
        nacc1 = _mm256_add_pd(
            nacc1, _mm256_cvtps_pd(_mm256_extractf128_ps(neg, 1)));
        const int bits = _mm256_movemask_ps(ge);
        const int64_t ones =
            _mm_popcnt_u32(static_cast<unsigned>(bits));
        pc += ones;
        nc += 8 - ones;
    }
    double ps = hsum4d(_mm256_add_pd(pacc0, pacc1));
    double ns = hsum4d(_mm256_add_pd(nacc0, nacc1));
    for (; i < n; ++i)
    {
        if (src[i] >= 0.0f)
        {
            ps += static_cast<double>(src[i]);
            ++pc;
        }
        else
        {
            ns += static_cast<double>(src[i]);
            ++nc;
        }
    }
    pos_sum = ps;
    neg_sum = ns;
    pos_count = pc;
    neg_count = nc;
}

OPTIMUS_TARGET_AVX2 void
selectBySignAvx2(float *dst, const float *src, float pos, float neg,
                 int64_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    const __m256 pv = _mm256_set1_ps(pos);
    const __m256 nv = _mm256_set1_ps(neg);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
    {
        const __m256 ge = _mm256_cmp_ps(_mm256_loadu_ps(src + i),
                                        zero, _CMP_GE_OQ);
        _mm256_storeu_ps(dst + i, _mm256_blendv_ps(nv, pv, ge));
    }
    for (; i < n; ++i)
        dst[i] = src[i] >= 0.0f ? pos : neg;
}

OPTIMUS_TARGET_AVX2 int64_t
keepAboveAvx2(float *dst, const float *src, const float *mag,
              float thresh, int64_t n)
{
    const __m256 tv = _mm256_set1_ps(thresh);
    int64_t kept = 0;
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
    {
        const __m256 gt = _mm256_cmp_ps(_mm256_loadu_ps(mag + i),
                                        tv, _CMP_GT_OQ);
        const int bits = _mm256_movemask_ps(gt);
        if (bits == 0)
            continue;
        _mm256_maskstore_ps(dst + i, _mm256_castps_si256(gt),
                            _mm256_loadu_ps(src + i));
        kept += _mm_popcnt_u32(static_cast<unsigned>(bits));
    }
    for (; i < n; ++i)
    {
        if (mag[i] > thresh)
        {
            dst[i] = src[i];
            ++kept;
        }
    }
    return kept;
}

OPTIMUS_TARGET_AVX2 void
adamAvx2(float *m, float *v, float *g, float *w, int64_t n,
         float beta1, float beta2, float alpha, float eps, bool zero_g)
{
    const __m256 b1 = _mm256_set1_ps(beta1);
    const __m256 c1 = _mm256_set1_ps(1.0f - beta1);
    const __m256 b2 = _mm256_set1_ps(beta2);
    const __m256 c2 = _mm256_set1_ps(1.0f - beta2);
    const __m256 al = _mm256_set1_ps(alpha);
    const __m256 ep = _mm256_set1_ps(eps);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8)
    {
        const __m256 gj = _mm256_loadu_ps(g + j);
        if (zero_g)
            _mm256_storeu_ps(g + j, _mm256_setzero_ps());
        const __m256 mj =
            _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + j)),
                          _mm256_mul_ps(c1, gj));
        const __m256 vj = _mm256_add_ps(
            _mm256_mul_ps(b2, _mm256_loadu_ps(v + j)),
            _mm256_mul_ps(_mm256_mul_ps(c2, gj), gj));
        const __m256 step =
            _mm256_div_ps(_mm256_mul_ps(al, mj),
                          _mm256_add_ps(_mm256_sqrt_ps(vj), ep));
        _mm256_storeu_ps(m + j, mj);
        _mm256_storeu_ps(v + j, vj);
        _mm256_storeu_ps(w + j,
                         _mm256_sub_ps(_mm256_loadu_ps(w + j), step));
    }
    adamScalar(m + j, v + j, g + j, w + j, n - j, beta1, beta2, alpha,
               eps, zero_g);
}

/** Rank-order double sum of 4 floats per rank at @p k. */
OPTIMUS_TARGET_AVX2 inline __m256d
rankSum4(float *const *ptrs, int ranks, int64_t k)
{
    __m256d acc = _mm256_setzero_pd();
    for (int d = 0; d < ranks; ++d)
        acc = _mm256_add_pd(acc,
                            _mm256_cvtps_pd(_mm_loadu_ps(ptrs[d] + k)));
    return acc;
}

OPTIMUS_TARGET_AVX2 void
rankCombineAvx2(float *const *ptrs, int ranks, int64_t offset,
                int64_t n, double scale)
{
    const __m256d sv = _mm256_set1_pd(scale);
    const int64_t end = offset + n;
    int64_t k = offset;
    for (; k + 8 <= end; k += 8)
    {
        const __m128 lo = _mm256_cvtpd_ps(
            _mm256_mul_pd(rankSum4(ptrs, ranks, k), sv));
        const __m128 hi = _mm256_cvtpd_ps(
            _mm256_mul_pd(rankSum4(ptrs, ranks, k + 4), sv));
        const __m256 val = _mm256_set_m128(hi, lo);
        for (int d = 0; d < ranks; ++d)
            _mm256_storeu_ps(ptrs[d] + k, val);
    }
    for (; k < end; ++k)
        rankCombineAt(ptrs, ranks, k, scale);
}

// ----------------------------------------------------------------
// AVX-512 kernels (16 floats / 8 doubles per register)
// ----------------------------------------------------------------

OPTIMUS_TARGET_AVX512 double
dotAvx512(const float *x, const float *y, int64_t n)
{
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    __m512d acc2 = _mm512_setzero_pd();
    __m512d acc3 = _mm512_setzero_pd();
    int64_t i = 0;
    for (; i + 32 <= n; i += 32)
    {
        acc0 = _mm512_fmadd_pd(
            _mm512_cvtps_pd(_mm256_loadu_ps(x + i)),
            _mm512_cvtps_pd(_mm256_loadu_ps(y + i)), acc0);
        acc1 = _mm512_fmadd_pd(
            _mm512_cvtps_pd(_mm256_loadu_ps(x + i + 8)),
            _mm512_cvtps_pd(_mm256_loadu_ps(y + i + 8)), acc1);
        acc2 = _mm512_fmadd_pd(
            _mm512_cvtps_pd(_mm256_loadu_ps(x + i + 16)),
            _mm512_cvtps_pd(_mm256_loadu_ps(y + i + 16)), acc2);
        acc3 = _mm512_fmadd_pd(
            _mm512_cvtps_pd(_mm256_loadu_ps(x + i + 24)),
            _mm512_cvtps_pd(_mm256_loadu_ps(y + i + 24)), acc3);
    }
    double s = hsum8d(_mm512_add_pd(_mm512_add_pd(acc0, acc1),
                                    _mm512_add_pd(acc2, acc3)));
    for (; i < n; ++i)
        s += static_cast<double>(x[i]) * y[i];
    return s;
}

OPTIMUS_TARGET_AVX512 void
subScaledAvx512(float *y, const float *x, float a, int64_t n)
{
    const __m512 av = _mm512_set1_ps(a);
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
    {
        const __m512 prod =
            _mm512_mul_ps(av, _mm512_loadu_ps(x + i));
        _mm512_storeu_ps(
            y + i, _mm512_sub_ps(_mm512_loadu_ps(y + i), prod));
    }
    for (; i < n; ++i)
        y[i] -= a * x[i];
}

OPTIMUS_TARGET_AVX512 void
scaleAvx512(float *x, float a, int64_t n)
{
    const __m512 av = _mm512_set1_ps(a);
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(x + i,
                         _mm512_mul_ps(av, _mm512_loadu_ps(x + i)));
    for (; i < n; ++i)
        x[i] *= a;
}

OPTIMUS_TARGET_AVX512 void
absAvx512(float *dst, const float *src, int64_t n)
{
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(dst + i,
                         _mm512_abs_ps(_mm512_loadu_ps(src + i)));
    for (; i < n; ++i)
        dst[i] = std::fabs(src[i]);
}

OPTIMUS_TARGET_AVX512 void
absDivAvx512(float *dst, const float *src, float scale, int64_t n)
{
    const __m512 sv = _mm512_set1_ps(scale);
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
    {
        const __m512 av = _mm512_abs_ps(_mm512_loadu_ps(src + i));
        _mm512_storeu_ps(dst + i, _mm512_div_ps(av, sv));
    }
    for (; i < n; ++i)
        dst[i] = std::fabs(src[i]) / scale;
}

OPTIMUS_TARGET_AVX512 void
signedSumsAvx512(const float *src, int64_t n, double &pos_sum,
                 double &neg_sum, int64_t &pos_count,
                 int64_t &neg_count)
{
    const __m512 zero = _mm512_setzero_ps();
    __m512d pacc0 = _mm512_setzero_pd();
    __m512d pacc1 = _mm512_setzero_pd();
    __m512d nacc0 = _mm512_setzero_pd();
    __m512d nacc1 = _mm512_setzero_pd();
    int64_t pc = 0;
    int64_t nc = 0;
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
    {
        const __m512 v = _mm512_loadu_ps(src + i);
        const __mmask16 ge =
            _mm512_cmp_ps_mask(v, zero, _CMP_GE_OQ);
        const __m512 pos = _mm512_maskz_mov_ps(ge, v);
        const __m512 neg =
            _mm512_maskz_mov_ps(static_cast<__mmask16>(~ge), v);
        pacc0 = _mm512_add_pd(
            pacc0, _mm512_cvtps_pd(_mm512_castps512_ps256(pos)));
        pacc1 = _mm512_add_pd(
            pacc1, _mm512_cvtps_pd(_mm512_castps512_ps256(
                       _mm512_shuffle_f32x4(pos, pos, 0xee))));
        nacc0 = _mm512_add_pd(
            nacc0, _mm512_cvtps_pd(_mm512_castps512_ps256(neg)));
        nacc1 = _mm512_add_pd(
            nacc1, _mm512_cvtps_pd(_mm512_castps512_ps256(
                       _mm512_shuffle_f32x4(neg, neg, 0xee))));
        const int64_t ones =
            _mm_popcnt_u32(static_cast<unsigned short>(ge));
        pc += ones;
        nc += 16 - ones;
    }
    double ps = hsum8d(_mm512_add_pd(pacc0, pacc1));
    double ns = hsum8d(_mm512_add_pd(nacc0, nacc1));
    for (; i < n; ++i)
    {
        if (src[i] >= 0.0f)
        {
            ps += static_cast<double>(src[i]);
            ++pc;
        }
        else
        {
            ns += static_cast<double>(src[i]);
            ++nc;
        }
    }
    pos_sum = ps;
    neg_sum = ns;
    pos_count = pc;
    neg_count = nc;
}

OPTIMUS_TARGET_AVX512 void
selectBySignAvx512(float *dst, const float *src, float pos,
                   float neg, int64_t n)
{
    const __m512 zero = _mm512_setzero_ps();
    const __m512 pv = _mm512_set1_ps(pos);
    const __m512 nv = _mm512_set1_ps(neg);
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
    {
        const __mmask16 ge = _mm512_cmp_ps_mask(
            _mm512_loadu_ps(src + i), zero, _CMP_GE_OQ);
        _mm512_storeu_ps(dst + i, _mm512_mask_blend_ps(ge, nv, pv));
    }
    for (; i < n; ++i)
        dst[i] = src[i] >= 0.0f ? pos : neg;
}

OPTIMUS_TARGET_AVX512 int64_t
keepAboveAvx512(float *dst, const float *src, const float *mag,
                float thresh, int64_t n)
{
    const __m512 tv = _mm512_set1_ps(thresh);
    int64_t kept = 0;
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
    {
        const __mmask16 gt = _mm512_cmp_ps_mask(
            _mm512_loadu_ps(mag + i), tv, _CMP_GT_OQ);
        if (gt == 0)
            continue;
        _mm512_mask_storeu_ps(dst + i, gt,
                              _mm512_loadu_ps(src + i));
        kept += _mm_popcnt_u32(gt);
    }
    for (; i < n; ++i)
    {
        if (mag[i] > thresh)
        {
            dst[i] = src[i];
            ++kept;
        }
    }
    return kept;
}

OPTIMUS_TARGET_AVX512 void
adamAvx512(float *m, float *v, float *g, float *w, int64_t n,
           float beta1, float beta2, float alpha, float eps,
           bool zero_g)
{
    const __m512 b1 = _mm512_set1_ps(beta1);
    const __m512 c1 = _mm512_set1_ps(1.0f - beta1);
    const __m512 b2 = _mm512_set1_ps(beta2);
    const __m512 c2 = _mm512_set1_ps(1.0f - beta2);
    const __m512 al = _mm512_set1_ps(alpha);
    const __m512 ep = _mm512_set1_ps(eps);
    int64_t j = 0;
    for (; j + 16 <= n; j += 16)
    {
        const __m512 gj = _mm512_loadu_ps(g + j);
        if (zero_g)
            _mm512_storeu_ps(g + j, _mm512_setzero_ps());
        const __m512 mj =
            _mm512_add_ps(_mm512_mul_ps(b1, _mm512_loadu_ps(m + j)),
                          _mm512_mul_ps(c1, gj));
        const __m512 vj = _mm512_add_ps(
            _mm512_mul_ps(b2, _mm512_loadu_ps(v + j)),
            _mm512_mul_ps(_mm512_mul_ps(c2, gj), gj));
        const __m512 step =
            _mm512_div_ps(_mm512_mul_ps(al, mj),
                          _mm512_add_ps(_mm512_sqrt_ps(vj), ep));
        _mm512_storeu_ps(m + j, mj);
        _mm512_storeu_ps(v + j, vj);
        _mm512_storeu_ps(w + j,
                         _mm512_sub_ps(_mm512_loadu_ps(w + j), step));
    }
    adamScalar(m + j, v + j, g + j, w + j, n - j, beta1, beta2, alpha,
               eps, zero_g);
}

/** Rank-order double sum of 8 floats per rank at @p k. */
OPTIMUS_TARGET_AVX512 inline __m512d
rankSum8(float *const *ptrs, int ranks, int64_t k)
{
    __m512d acc = _mm512_setzero_pd();
    for (int d = 0; d < ranks; ++d)
        acc = _mm512_add_pd(
            acc, _mm512_cvtps_pd(_mm256_loadu_ps(ptrs[d] + k)));
    return acc;
}

OPTIMUS_TARGET_AVX512 void
rankCombineAvx512(float *const *ptrs, int ranks, int64_t offset,
                  int64_t n, double scale)
{
    const __m512d sv = _mm512_set1_pd(scale);
    const int64_t end = offset + n;
    int64_t k = offset;
    for (; k + 16 <= end; k += 16)
    {
        const __m256 lo = _mm512_cvtpd_ps(
            _mm512_mul_pd(rankSum8(ptrs, ranks, k), sv));
        const __m256 hi = _mm512_cvtpd_ps(
            _mm512_mul_pd(rankSum8(ptrs, ranks, k + 8), sv));
        for (int d = 0; d < ranks; ++d)
        {
            _mm256_storeu_ps(ptrs[d] + k, lo);
            _mm256_storeu_ps(ptrs[d] + k + 8, hi);
        }
    }
    for (; k < end; ++k)
        rankCombineAt(ptrs, ranks, k, scale);
}

// ----------------------------------------------------------------
// GELU vector tiers: a lane-parallel replica of fdlibm's tanhf
// (s_tanhf.c) and of the expm1f (s_expm1f.c) paths tanhf reaches,
// written once over GCC vector types and instantiated 8-wide for
// AVX2 and 16-wide for AVX-512 (the target-attributed wrappers
// inline it, so each tier compiles to its own ISA). Every fdlibm
// branch is evaluated in every lane and picked by a lane select;
// each expression keeps fdlibm's operation order with no FMA
// (-ffp-contract=off) and IEEE division, so a lane rounds exactly
// like libm's scalar tanhf.
//
// Reachable expm1f paths. tanhf(x) calls expm1f(a) only for
// 2^-55 <= |x| < 22, with a = 2|x| when |x| >= 1 (so a in [2, 44),
// k = (int)(a / ln2 + 0.5) in [3, 63]) and a = -2|x| otherwise (so
// a in (-2, -2^-54], k in {0, -1, -2, -3}). That leaves the
// |a| < 2^-25 early return and the k = 0, k = -1, k <= -2,
// 3 <= k <= 22, 23 <= k <= 56 and k > 56 results; expm1f's
// overflow, infinity, NaN, k = 1 and k = 128 paths never run.
// ----------------------------------------------------------------

typedef float GeluF8 __attribute__((vector_size(32)));
typedef int32_t GeluI8 __attribute__((vector_size(32)));
typedef uint32_t GeluU8 __attribute__((vector_size(32)));
typedef float GeluF16 __attribute__((vector_size(64)));
typedef int32_t GeluI16 __attribute__((vector_size(64)));
typedef uint32_t GeluU16 __attribute__((vector_size(64)));

// fdlibm's s_expm1f.c constants.
constexpr float kLn2Hi = 6.9313812256e-01f;  // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;  // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f; // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;    // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;     // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;    // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;     // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;    // 0xb457edbb

/**
 * out = tanhf(x) per lane. Vectors travel by reference so the
 * (untargeted) template never passes a wide vector by value; it is
 * always inlined into a tier's target-attributed kernel. Range tests
 * are single unsigned compares: AVX-512F alone (no DQ) cannot AND
 * two compare results as vectors, and GCC would go lane by lane.
 */
template <class F, class I, class U>
[[gnu::always_inline]] inline void
tanhfLanes(const F &x, F &out)
{
    const I jx = (I)x;
    const I ix = jx & 0x7fffffff;
    const I big = ix >= 0x3f800000; // |x| >= 1

    // expm1f's argument. Lanes tanhf does not send to expm1f get the
    // stand-in |x| = 1, which keeps every lane's k in [-3, 63] and
    // its integer math in range; their results are replaced below.
    const I via_expm1 =
        (U)(ix - 0x24000000) < 0x41b00000u - 0x24000000u;
    const F ax = via_expm1 ? (F)ix : (F{} + 1.0f);
    const F a = big ? 2.0f * ax : -2.0f * ax;
    const I ha = (I)ax + 0x00800000; // |a| as bits (ax is normal)

    // Argument reduction a = k ln2 + r, with r = hi - lo rounded and
    // c its correction. a > 0 only when a >= 2, so the |a| < 1.5 ln2
    // case always has k = -1.
    const F half = big ? (F{} + 0.5f) : (F{} - 0.5f);
    I k = __builtin_convertvector(kInvLn2 * a + half, I);
    const F tk = __builtin_convertvector(k, F);
    const I near_ln2 = ha < 0x3f851592;
    const F hi = near_ln2 ? a + kLn2Hi : a - tk * kLn2Hi;
    const F lo = near_ln2 ? (F{} - kLn2Lo) : tk * kLn2Lo;
    k = near_ln2 ? (I{} - 1) : k;
    const F r_red = hi - lo;
    const F c = (hi - r_red) - lo;
    const I reduced = ha > 0x3eb17218; // |a| > 0.5 ln2
    const F r = reduced ? r_red : a;
    k = reduced ? k : I{};

    // expm1 on the primary range, then each k's reconstruction.
    const F hfx = 0.5f * r;
    const F hxs = r * hfx;
    const F r1 =
        1.0f +
        hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
    const F t3 = 3.0f - r1 * hfx;
    F e = hxs * ((r1 - t3) / (6.0f - r * t3));
    const F em_k0 = r - (r * e - hxs);
    e = r * (e - c) - c;
    e -= hxs;
    const F em_km1 = 0.5f * (r - e) - 0.5f;
    const I kexp = k << 23; // k added to a float's exponent field
    const F em_far = (F)((I)(1.0f - (e - r)) + kexp) - 1.0f;
    const F t_mid = (F)(0x3f800000 - (0x1000000 >> (k & 31)));
    const F em_mid = (F)((I)(t_mid - (e - r)) + kexp);
    const F t_hi = (F)((0x7f - k) << 23);
    const F em_hi = (F)((I)((r - (e + t_hi)) + 1.0f) + kexp);

    F em = em_far; // k <= -2 or k > 56
    em = ((U)(k - 3) <= 22u - 3u) ? em_mid : em;   // 3 <= k <= 22
    em = ((U)(k - 23) <= 56u - 23u) ? em_hi : em; // 23 <= k <= 56
    em = (k == -1) ? em_km1 : em;
    em = (k == 0) ? em_k0 : em;
    em = (ha < 0x33000000) ? a : em; // |a| < 2^-25: expm1f(a) = a

    // tanhf: 1 - 2 / (em + 2) for |x| >= 1, else -em / (em + 2) —
    // one division on a selected numerator.
    const F q = (big ? (F{} + 2.0f) : -em) / (em + 2.0f);
    F z = big ? 1.0f - q : q;
    z = (ix >= 0x41b00000) ? (F{} + (1.0f - 1.0e-30f)) : z; // |x| >= 22
    z = (jx >= 0) ? z : -z;
    // |x| < 2^-55, ±0 included (±0 * 1 keeps the sign, like
    // fdlibm's separate x == 0 return).
    z = (ix < 0x24000000) ? x * (1.0f + x) : z;
    const F rx = 1.0f / x;
    const F z_nonfinite = (jx >= 0) ? rx + 1.0f : rx - 1.0f;
    out = (ix >= 0x7f800000) ? z_nonfinite : z;
}

/** GELU of one vector; @p d only when kTrain. */
template <class F, class I, class U, bool kTrain>
[[gnu::always_inline]] inline void
geluLanes(const F &x, F &y, F &d)
{
    const F u =
        kGeluSqrt2OverPi * (x + ((kGeluCoeff * x) * x) * x);
    F t;
    tanhfLanes<F, I, U>(u, t);
    y = (0.5f * x) * (1.0f + t);
    if (!kTrain)
        return;
    const F sech2 = 1.0f - t * t;
    const F dinner =
        kGeluSqrt2OverPi * (1.0f + ((3.0f * kGeluCoeff) * x) * x);
    d = 0.5f * (1.0f + t) + ((0.5f * x) * sech2) * dinner;
}

/**
 * The vector-tier GELU loop. The tail is padded into one more full
 * vector, so every element goes through the same replica.
 */
template <class F, class I, class U, bool kTrain>
[[gnu::always_inline]] inline void
geluSpan(const float *x, float *y, float *dydx, int64_t n)
{
    constexpr int64_t kW = sizeof(F) / sizeof(float);
    F xv, yv, dv;
    int64_t i = 0;
    for (; i + kW <= n; i += kW)
    {
        std::memcpy(&xv, x + i, sizeof(F));
        geluLanes<F, I, U, kTrain>(xv, yv, dv);
        std::memcpy(y + i, &yv, sizeof(F));
        if (kTrain)
            std::memcpy(dydx + i, &dv, sizeof(F));
    }
    if (i == n)
        return;
    const size_t tail = static_cast<size_t>(n - i) * sizeof(float);
    xv = F{};
    std::memcpy(&xv, x + i, tail);
    geluLanes<F, I, U, kTrain>(xv, yv, dv);
    std::memcpy(y + i, &yv, tail);
    if (kTrain)
        std::memcpy(dydx + i, &dv, tail);
}

OPTIMUS_TARGET_AVX2 void
geluAvx2(const float *x, float *y, float *dydx, int64_t n)
{
    if (dydx != nullptr)
        geluSpan<GeluF8, GeluI8, GeluU8, true>(x, y, dydx, n);
    else
        geluSpan<GeluF8, GeluI8, GeluU8, false>(x, y, dydx, n);
}

OPTIMUS_TARGET_AVX512 void
geluAvx512(const float *x, float *y, float *dydx, int64_t n)
{
    if (dydx != nullptr)
        geluSpan<GeluF16, GeluI16, GeluU16, true>(x, y, dydx, n);
    else
        geluSpan<GeluF16, GeluI16, GeluU16, false>(x, y, dydx, n);
}

#endif // OPTIMUS_SIMD_X86

// ----------------------------------------------------------------
// Strided kernels (portable). Each dot replica mirrors one tier's
// register/lane accumulation structure exactly: kRegs accumulator
// registers of kLanes double lanes each, filled round-robin over a
// kRegs*kLanes element block, registers combined lane-wise as
// (r0+r1)+(r2+r3), lanes combined by the hsum4d/hsum8d pairwise
// order, scalar tail in element order. Because a float*float
// product is exact in double, `acc += (double)x * y` is bit-equal
// to the vector kernels' fmadd — so each replica matches its tier's
// contiguous kernel bit for bit on the same element sequence.
// ----------------------------------------------------------------

double
dotStridedScalar(const float *x, int64_t xs, const float *y,
                 int64_t ys, int64_t n)
{
    double s = 0.0;
    for (int64_t i = 0; i < n; ++i)
        s += static_cast<double>(x[i * xs]) * y[i * ys];
    return s;
}

/** The AVX2 dot order: 4 registers x 4 double lanes, 16/block. */
double
dotStridedAvx2Order(const float *x, int64_t xs, const float *y,
                    int64_t ys, int64_t n)
{
    double acc[4][4] = {};
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
    {
        for (int r = 0; r < 4; ++r)
            for (int l = 0; l < 4; ++l)
            {
                const int64_t e = i + 4 * r + l;
                acc[r][l] += static_cast<double>(x[e * xs]) *
                             y[e * ys];
            }
    }
    double lane[4];
    for (int l = 0; l < 4; ++l)
        lane[l] = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
    double s = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    for (; i < n; ++i)
        s += static_cast<double>(x[i * xs]) * y[i * ys];
    return s;
}

/** The AVX-512 dot order: 4 registers x 8 double lanes, 32/block. */
double
dotStridedAvx512Order(const float *x, int64_t xs, const float *y,
                      int64_t ys, int64_t n)
{
    double acc[4][8] = {};
    int64_t i = 0;
    for (; i + 32 <= n; i += 32)
    {
        for (int r = 0; r < 4; ++r)
            for (int l = 0; l < 8; ++l)
            {
                const int64_t e = i + 8 * r + l;
                acc[r][l] += static_cast<double>(x[e * xs]) *
                             y[e * ys];
            }
    }
    double lane[8];
    for (int l = 0; l < 8; ++l)
        lane[l] = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
    double s = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
               ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    for (; i < n; ++i)
        s += static_cast<double>(x[i * xs]) * y[i * ys];
    return s;
}

} // namespace

// ----------------------------------------------------------------
// Public dispatch wrappers
// ----------------------------------------------------------------

double
dotDouble(Tier t, const float *x, const float *y, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t == Tier::Avx512)
        return dotAvx512(x, y, n);
    if (t == Tier::Avx2)
        return dotAvx2(x, y, n);
#endif
    (void)t;
    return dotScalar(x, y, n);
}

void
subScaled(Tier t, float *y, const float *x, float a, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t == Tier::Avx512)
        return subScaledAvx512(y, x, a, n);
    if (t == Tier::Avx2)
        return subScaledAvx2(y, x, a, n);
#endif
    (void)t;
    subScaledScalar(y, x, a, n);
}

void
scaleInPlace(Tier t, float *x, float a, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t == Tier::Avx512)
        return scaleAvx512(x, a, n);
    if (t == Tier::Avx2)
        return scaleAvx2(x, a, n);
#endif
    (void)t;
    scaleScalar(x, a, n);
}

void
absVals(Tier t, float *dst, const float *src, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t == Tier::Avx512)
        return absAvx512(dst, src, n);
    if (t == Tier::Avx2)
        return absAvx2(dst, src, n);
#endif
    (void)t;
    absScalar(dst, src, n);
}

void
absDiv(Tier t, float *dst, const float *src, float scale, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t == Tier::Avx512)
        return absDivAvx512(dst, src, scale, n);
    if (t == Tier::Avx2)
        return absDivAvx2(dst, src, scale, n);
#endif
    (void)t;
    absDivScalar(dst, src, scale, n);
}

void
signedSums(Tier t, const float *src, int64_t n, double &pos_sum,
           double &neg_sum, int64_t &pos_count, int64_t &neg_count)
{
#if OPTIMUS_SIMD_X86
    if (t == Tier::Avx512)
        return signedSumsAvx512(src, n, pos_sum, neg_sum, pos_count,
                                neg_count);
    if (t == Tier::Avx2)
        return signedSumsAvx2(src, n, pos_sum, neg_sum, pos_count,
                              neg_count);
#endif
    (void)t;
    signedSumsScalar(src, n, pos_sum, neg_sum, pos_count,
                     neg_count);
}

void
selectBySign(Tier t, float *dst, const float *src, float pos,
             float neg, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t == Tier::Avx512)
        return selectBySignAvx512(dst, src, pos, neg, n);
    if (t == Tier::Avx2)
        return selectBySignAvx2(dst, src, pos, neg, n);
#endif
    (void)t;
    selectBySignScalar(dst, src, pos, neg, n);
}

int64_t
keepAbove(Tier t, float *dst, const float *src, const float *mag,
          float thresh, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t == Tier::Avx512)
        return keepAboveAvx512(dst, src, mag, thresh, n);
    if (t == Tier::Avx2)
        return keepAboveAvx2(dst, src, mag, thresh, n);
#endif
    (void)t;
    return keepAboveScalar(dst, src, mag, thresh, n);
}

void
adamUpdate(Tier t, float *m, float *v, float *g, float *w, int64_t n,
           float beta1, float beta2, float alpha, float eps, bool zero_g)
{
#if OPTIMUS_SIMD_X86
    if (t == Tier::Avx512)
        return adamAvx512(m, v, g, w, n, beta1, beta2, alpha, eps,
                          zero_g);
    if (t == Tier::Avx2)
        return adamAvx2(m, v, g, w, n, beta1, beta2, alpha, eps,
                        zero_g);
#endif
    (void)t;
    adamScalar(m, v, g, w, n, beta1, beta2, alpha, eps, zero_g);
}

void
rankCombine(Tier t, float *const *ptrs, int ranks, int64_t offset,
            int64_t n, double scale)
{
#if OPTIMUS_SIMD_X86
    if (t == Tier::Avx512)
        return rankCombineAvx512(ptrs, ranks, offset, n, scale);
    if (t == Tier::Avx2)
        return rankCombineAvx2(ptrs, ranks, offset, n, scale);
#endif
    (void)t;
    rankCombineScalar(ptrs, ranks, offset, n, scale);
}

void
gelu(Tier t, const float *x, float *y, float *dydx, int64_t n)
{
#if OPTIMUS_SIMD_X86
    if (t == Tier::Avx512)
        return geluAvx512(x, y, dydx, n);
    if (t == Tier::Avx2)
        return geluAvx2(x, y, dydx, n);
#endif
    (void)t;
    geluScalar(x, y, dydx, n);
}

double
dotDoubleStrided(Tier t, const float *x, int64_t xstride,
                 const float *y, int64_t ystride, int64_t n)
{
    if (t == Tier::Avx512)
        return dotStridedAvx512Order(x, xstride, y, ystride, n);
    if (t == Tier::Avx2)
        return dotStridedAvx2Order(x, xstride, y, ystride, n);
    return dotStridedScalar(x, xstride, y, ystride, n);
}

void
subScaledStrided(Tier t, float *y, int64_t ystride, const float *x,
                 int64_t xstride, float a, int64_t n)
{
    // One multiply and one subtract per element — bit-identical to
    // every contiguous tier on the same values, so no per-tier
    // bodies are needed.
    (void)t;
    for (int64_t i = 0; i < n; ++i)
        y[i * ystride] -= a * x[i * xstride];
}

void
scaleStrided(Tier t, float *x, int64_t stride, float a, int64_t n)
{
    (void)t;
    for (int64_t i = 0; i < n; ++i)
        x[i * stride] *= a;
}

} // namespace simd
} // namespace optimus
