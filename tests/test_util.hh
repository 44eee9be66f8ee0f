/**
 * @file
 * Shared helpers for the test suite: finite-difference gradient
 * checking against the hand-written backward passes.
 */

#ifndef OPTIMUS_TESTS_TEST_UTIL_HH
#define OPTIMUS_TESTS_TEST_UTIL_HH

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "nn/layer.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace optimus::test
{

/**
 * Check d(sum(w .* layer(x)))/dx via central differences on a
 * sample of input coordinates.
 *
 * @return largest relative error over the sampled coordinates.
 */
inline double
inputGradError(Layer &layer, Tensor x, const Tensor &w, Rng &rng,
               int samples = 24, float eps = 1e-2f)
{
    layer.clearStash();
    Tensor y = layer.forward(x);
    Tensor dx = layer.backward(w);

    double worst = 0.0;
    for (int s = 0; s < samples; ++s) {
        const auto i =
            static_cast<int64_t>(rng.uniformInt(x.size()));
        const float saved = x[i];

        x[i] = saved + eps;
        layer.clearStash();
        Tensor yp = layer.forward(x);
        x[i] = saved - eps;
        layer.clearStash();
        Tensor ym = layer.forward(x);
        x[i] = saved;

        double fp = 0.0, fm = 0.0;
        for (int64_t j = 0; j < yp.size(); ++j) {
            fp += static_cast<double>(w[j]) * yp[j];
            fm += static_cast<double>(w[j]) * ym[j];
        }
        const double numeric = (fp - fm) / (2.0 * eps);
        const double analytic = dx[i];
        // Coordinates whose true gradient is (near-)zero produce
        // pure fp32 noise in the numeric estimate; skip them.
        if (std::fabs(numeric) < 1e-3 && std::fabs(analytic) < 1e-3)
            continue;
        const double denom =
            std::max({std::fabs(numeric), std::fabs(analytic), 1e-4});
        const double rel = std::fabs(numeric - analytic) / denom;
        if (rel > worst)
            worst = rel;
    }
    layer.clearStash();
    return worst;
}

/**
 * Check d(sum(w .* layer(x)))/dparam via central differences on a
 * sample of coordinates of every parameter.
 */
inline double
paramGradError(Layer &layer, const Tensor &x, const Tensor &w,
               Rng &rng, int samples_per_param = 12,
               float eps = 1e-2f)
{
    layer.clearStash();
    for (const auto &p : layer.params())
        p->zeroGrad();
    Tensor y = layer.forward(x);
    layer.backward(w);

    double worst = 0.0;
    for (const auto &p : dedupParams(layer.params())) {
        for (int s = 0; s < samples_per_param; ++s) {
            const auto i =
                static_cast<int64_t>(rng.uniformInt(p->size()));
            const float saved = p->value[i];

            p->value[i] = saved + eps;
            layer.clearStash();
            Tensor yp = layer.forward(x);
            p->value[i] = saved - eps;
            layer.clearStash();
            Tensor ym = layer.forward(x);
            p->value[i] = saved;

            double fp = 0.0, fm = 0.0;
            for (int64_t j = 0; j < yp.size(); ++j) {
                fp += static_cast<double>(w[j]) * yp[j];
                fm += static_cast<double>(w[j]) * ym[j];
            }
            const double numeric = (fp - fm) / (2.0 * eps);
            const double analytic = p->grad[i];
            if (std::fabs(numeric) < 1e-3 &&
                std::fabs(analytic) < 1e-3) {
                continue;
            }
            const double denom = std::max(
                {std::fabs(numeric), std::fabs(analytic), 1e-4});
            const double rel =
                std::fabs(numeric - analytic) / denom;
            if (rel > worst)
                worst = rel;
        }
    }
    layer.clearStash();
    return worst;
}

/** Bitwise float equality, except that any two NaNs match. */
inline bool
sameFloat(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

inline float
floatFromBits(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
}

/**
 * GELU inputs that exercise every tanhf/expm1f branch the GELU tanh
 * argument u = kSqrt2OverPi * (x + ((0.044715 * x) * x) * x) can
 * reach: for each branch edge e of |u|, the x values within 4 ulps
 * of where u crosses e, both signs. Edges: 2^-55 (tanhf's tiny
 * return), 2^-26 (expm1f's |a| < 2^-25 return, a = -2|u|), half of
 * expm1f's 0.5 ln2 and 1.5 ln2 reduction thresholds, 1 (tanhf's
 * expm1f(2|u|) side), every (m + 0.5) ln2 / 2 for m in [0, 64] (each
 * step of k, so the k = 22/23 and 56/57 boundaries too) and 22.
 * Plus ±0, denormals, FLT_MIN, inputs whose cube overflows, ±FLT_MAX,
 * ±inf and quiet/signalling NaNs of both signs with payloads.
 */
inline std::vector<float>
geluSpecialInputs()
{
    // The GELU inner expression in the kernels' float op order.
    const auto u_of = [](float x) {
        return 0.7978845608028654f * (x + ((0.044715f * x) * x) * x);
    };
    std::vector<double> edges = {std::ldexp(1.0, -55),
                                 std::ldexp(1.0, -26),
                                 floatFromBits(0x3eb17218) / 2.0,
                                 floatFromBits(0x3f851592) / 2.0, 1.0,
                                 22.0};
    for (int m = 0; m <= 64; ++m)
        edges.push_back((m + 0.5) * std::log(2.0) / 2.0);

    std::vector<float> xs;
    for (double e : edges) {
        // Smallest positive x (by bit pattern) with u(x) >= e.
        uint32_t lo = 0, hi = 0x7f7fffff;
        while (lo < hi) {
            const uint32_t mid = lo + (hi - lo) / 2;
            if (u_of(floatFromBits(mid)) >= e)
                hi = mid;
            else
                lo = mid + 1;
        }
        for (uint32_t b = lo - 4; b <= lo + 4; ++b) {
            xs.push_back(floatFromBits(b));
            xs.push_back(-floatFromBits(b));
        }
    }
    for (uint32_t bits :
         {0x00000000u, 0x00000001u, 0x00000fffu, 0x00400000u,
          0x007fffffu, 0x00800000u, 0x5f800000u, 0x7f7fffffu,
          0x7f800000u, 0x7fc00000u, 0x7fc01234u, 0x7f800001u,
          0x7fa00000u}) {
        xs.push_back(floatFromBits(bits));
        xs.push_back(floatFromBits(bits | 0x80000000u));
    }
    return xs;
}

} // namespace optimus::test

#endif // OPTIMUS_TESTS_TEST_UTIL_HH
