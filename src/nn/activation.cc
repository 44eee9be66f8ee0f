#include "nn/activation.hh"

#include <cmath>

#include "runtime/runtime.hh"
#include "tensor/simd.hh"
#include "util/logging.hh"

namespace optimus
{

namespace
{

constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCoeff = 0.044715f;

/**
 * The GELU expressions, split at the one transcendental. These are
 * the std::tanh reference: Gelu::forward runs simd::gelu, whose
 * every tier is bitwise equal to them (DESIGN.md section 8), so the
 * stash-fed backward is bitwise dy * Gelu::derivative(x).
 */
inline float
geluTanh(float x)
{
    return std::tanh(kSqrt2OverPi * (x + kGeluCoeff * x * x * x));
}

inline float
geluValue(float x, float t)
{
    return 0.5f * x * (1.0f + t);
}

inline float
geluDerivative(float x, float t)
{
    const float sech2 = 1.0f - t * t;
    const float dinner =
        kSqrt2OverPi * (1.0f + 3.0f * kGeluCoeff * x * x);
    return 0.5f * (1.0f + t) + 0.5f * x * sech2 * dinner;
}

/** parallelFor grain for element-wise maps (disjoint writes). */
constexpr int64_t kElemGrain = 4096;

} // namespace

float
Gelu::value(float x)
{
    return geluValue(x, geluTanh(x));
}

float
Gelu::derivative(float x)
{
    return geluDerivative(x, geluTanh(x));
}

// optlint:hot — serving decode path (zero-allocation contract).
Tensor
Gelu::forward(const Tensor &x)
{
    Tensor y(x.shape());
    const float *xd = x.data();
    float *yd = y.data();
    const int64_t n = x.size();
    // Train: one tanh per element yields both y and dGELU/dx, and
    // the stash holds the derivative, so backward is one multiply.
    float *gd = nullptr;
    if (mode() == Mode::Train) {
        Tensor &grad = stash_.pushSlot();
        grad = x;
        gd = grad.data();
    }
    const simd::Tier tier = simd::tier();
    parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        simd::gelu(tier, xd + lo, yd + lo,
                   gd == nullptr ? nullptr : gd + lo, hi - lo);
    });
    return y;
}

Tensor
Gelu::backward(const Tensor &dy)
{
    OPTIMUS_ASSERT(mode() == Mode::Train);
    OPTIMUS_ASSERT(!stash_.empty());
    const Tensor &grad = stash_.front();
    OPTIMUS_ASSERT(grad.size() == dy.size());

    Tensor dx(dy.shape());
    const float *gd = grad.data();
    const float *dyd = dy.data();
    float *dxd = dx.data();
    const int64_t n = dy.size();
    parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            dxd[i] = dyd[i] * gd[i];
    });
    stash_.popFront();
    return dx;
}

Tensor
Relu::forward(const Tensor &x)
{
    Tensor y(x.shape());
    const float *xd = x.data();
    float *yd = y.data();
    const int64_t n = x.size();
    parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            yd[i] = xd[i] > 0.0f ? xd[i] : 0.0f;
    });
    if (mode() == Mode::Train)
        stash_.pushSlot() = x;
    return y;
}

Tensor
Relu::backward(const Tensor &dy)
{
    OPTIMUS_ASSERT(mode() == Mode::Train);
    OPTIMUS_ASSERT(!stash_.empty());
    const Tensor &x = stash_.front();

    Tensor dx(dy.shape());
    const float *xd = x.data();
    const float *dyd = dy.data();
    float *dxd = dx.data();
    const int64_t n = dy.size();
    parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            dxd[i] = xd[i] > 0.0f ? dyd[i] : 0.0f;
    });
    stash_.popFront();
    return dx;
}

} // namespace optimus
