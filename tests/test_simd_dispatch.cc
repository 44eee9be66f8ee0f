/**
 * @file
 * Tests for the runtime SIMD dispatch layer (src/tensor/simd.hh):
 * OPTIMUS_SIMD parsing and tier selection, and the per-tier
 * determinism contract on a full Trainer3d run — for every tier the
 * CPU supports, 5 iterations are bitwise reproducible (mirroring
 * the CommTrace/obs neutrality gates), bitwise invariant to the
 * thread count, and within documented tolerance of the Scalar
 * tier. Run at OPTIMUS_THREADS in {1, 4, 8} plus an
 * OPTIMUS_SIMD=scalar leg via tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "comm/transport.hh"
#include "data/corpus.hh"
#include "data/dataset.hh"
#include "nn/activation.hh"
#include "parallel/trainer3d.hh"
#include "runtime/runtime.hh"
#include "tensor/simd.hh"
#include "test_util.hh"
#include "util/random.hh"

namespace optimus
{
namespace
{

// Force a multi-threaded pool before its lazy construction so the
// determinism tests actually exercise pooled execution (the ctest
// re-registrations override this with an explicit value).
const bool kForceThreads = [] {
    ::setenv("OPTIMUS_THREADS", "4", 0);
    return true;
}();

std::vector<simd::Tier>
supportedTiers()
{
    std::vector<simd::Tier> tiers;
    for (simd::Tier t : {simd::Tier::Scalar, simd::Tier::Avx2,
                         simd::Tier::Avx512})
        if (simd::supported(t))
            tiers.push_back(t);
    return tiers;
}

GptConfig
tinyModel()
{
    GptConfig config;
    config.vocab = 24;
    config.hidden = 16;
    config.layers = 4;
    config.heads = 2;
    config.seqLen = 8;
    config.seed = 77;
    return config;
}

LmDataset
tinyData(int64_t seq_len)
{
    CorpusConfig cc;
    cc.vocab = 24;
    cc.totalTokens = 6000;
    cc.seed = 5;
    SyntheticCorpus corpus(cc);
    return {corpus.train(), seq_len};
}

/** Fully-compressed tiny grid on the overlapped engine path — the
 * configuration that runs every SIMD-dispatched kernel (GEMM,
 * PowerSGD Gram-Schmidt, the quantizers behind the compressors). */
Trainer3dConfig
tinyConfig()
{
    Trainer3dConfig config;
    config.model = tinyModel();
    config.dataParallel = 2;
    config.pipelineStages = 2;
    config.microBatches = 2;
    config.microBatchSize = 2;
    config.learningRate = 1e-3f;
    config.useAdam = true;
    config.bucketBytes = 2048;
    config.cb.enabled = true;
    config.dp.enabled = true;
    config.dp.stageFraction = 0.75;
    config.fusedEmbeddingSync = true;
    return config;
}

/** Exact float mismatch count across two trainers' parameters. */
int64_t
bitwiseMismatch(Trainer3d &a, Trainer3d &b)
{
    int64_t mismatches = 0;
    for (int d = 0; d < a.config().dataParallel; ++d) {
        for (int p = 0; p < a.config().pipelineStages; ++p) {
            const auto pa = a.stage(d, p).params();
            const auto pb = b.stage(d, p).params();
            EXPECT_EQ(pa.size(), pb.size());
            for (size_t j = 0; j < pa.size(); ++j) {
                const Tensor &ta = pa[j]->value;
                const Tensor &tb = pb[j]->value;
                EXPECT_EQ(ta.size(), tb.size());
                for (int64_t i = 0; i < ta.size(); ++i) {
                    if (std::memcmp(&ta.data()[i], &tb.data()[i],
                                    sizeof(float)) != 0)
                        ++mismatches;
                }
            }
        }
    }
    return mismatches;
}

/** 5 tiny iterations under the active tier; returns the last loss. */
double
trainLosses(Trainer3d &trainer, const LmDataset &data, Rng &rng,
            double *per_iter = nullptr)
{
    double loss = 0.0;
    for (int it = 0; it < 5; ++it) {
        loss = trainer.trainIteration(data, rng).loss;
        if (per_iter != nullptr)
            per_iter[it] = loss;
    }
    return loss;
}

// Runs first: later tests overwrite the active tier via setTier,
// so the environment-resolution check must come before them.
TEST(SimdDispatch, EnvOverrideResolvesActiveTier)
{
    const char *env = std::getenv("OPTIMUS_SIMD");
    simd::Tier want;
    if (env != nullptr && *env != '\0' &&
        simd::parseTier(env, want) && simd::supported(want)) {
        EXPECT_EQ(simd::tier(), want) << "OPTIMUS_SIMD=" << env;
    } else {
        // Unset, unknown, or unsupported spellings resolve to the
        // widest supported tier.
        EXPECT_EQ(simd::tier(), simd::cap());
    }
}

TEST(SimdDispatch, ParseTierSpellings)
{
    simd::Tier t;
    EXPECT_TRUE(simd::parseTier("scalar", t));
    EXPECT_EQ(t, simd::Tier::Scalar);
    EXPECT_TRUE(simd::parseTier("avx2", t));
    EXPECT_EQ(t, simd::Tier::Avx2);
    EXPECT_TRUE(simd::parseTier("avx512", t));
    EXPECT_EQ(t, simd::Tier::Avx512);
    EXPECT_TRUE(simd::parseTier("auto", t));
    EXPECT_EQ(t, simd::cap());

    EXPECT_FALSE(simd::parseTier(nullptr, t));
    EXPECT_FALSE(simd::parseTier("", t));
    EXPECT_FALSE(simd::parseTier("AVX2", t));
    EXPECT_FALSE(simd::parseTier("sse", t));
}

TEST(SimdDispatch, TierNamesRoundTrip)
{
    for (simd::Tier t : {simd::Tier::Scalar, simd::Tier::Avx2,
                         simd::Tier::Avx512}) {
        simd::Tier parsed;
        ASSERT_TRUE(simd::parseTier(simd::tierName(t), parsed));
        EXPECT_EQ(parsed, t);
    }
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndTiersAreOrdered)
{
    EXPECT_TRUE(simd::supported(simd::Tier::Scalar));
    EXPECT_TRUE(simd::supported(simd::cap()));
    // Tiers are cumulative: a CPU with AVX-512 kernels also runs
    // the AVX2 ones.
    if (simd::supported(simd::Tier::Avx512)) {
        EXPECT_TRUE(simd::supported(simd::Tier::Avx2));
    }
}

TEST(SimdDispatch, SetTierSticksForSupportedTiers)
{
    const simd::Tier initial = simd::tier();
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        EXPECT_EQ(simd::tier(), t);
    }
    simd::setTier(initial);
}

TEST(SimdDispatch, StridedKernelsBitwiseMatchGatheredContiguous)
{
    // The strided variants' contract (tensor/simd.hh): at EVERY
    // tier, a strided kernel must produce bit-for-bit what the
    // contiguous kernel produces on a gathered copy of the same
    // span. This is what makes the gather-free PowerSGD
    // Gram-Schmidt a pure data-movement optimization.
    Rng rng(55);
    const int64_t kSizes[] = {1, 2, 31, 32, 33, 63, 64, 65, 257};
    const int64_t kStrides[] = {1, 3, 5};
    for (int64_t n : kSizes) {
        for (int64_t stride : kStrides) {
            std::vector<float> xs(static_cast<size_t>(n * stride));
            std::vector<float> ys(xs.size());
            for (float &v : xs)
                v = static_cast<float>(rng.normal());
            for (float &v : ys)
                v = static_cast<float>(rng.normal());
            // Gathered copies of the strided spans.
            std::vector<float> xg(static_cast<size_t>(n));
            std::vector<float> yg(static_cast<size_t>(n));
            for (int64_t i = 0; i < n; ++i) {
                xg[i] = xs[i * stride];
                yg[i] = ys[i * stride];
            }
            for (simd::Tier t : supportedTiers()) {
                const double want =
                    simd::dotDouble(t, xg.data(), yg.data(), n);
                const double got = simd::dotDoubleStrided(
                    t, xs.data(), stride, ys.data(), stride, n);
                EXPECT_EQ(0, std::memcmp(&want, &got, sizeof want))
                    << simd::tierName(t) << " n=" << n
                    << " stride=" << stride;

                std::vector<float> yc = yg;
                std::vector<float> ysc = ys;
                simd::subScaled(t, yc.data(), xg.data(), 0.37f, n);
                simd::subScaledStrided(t, ysc.data(), stride,
                                       xs.data(), stride, 0.37f, n);
                std::vector<float> xc = xg;
                std::vector<float> xsc = xs;
                simd::scaleInPlace(t, xc.data(), 1.61f, n);
                simd::scaleStrided(t, xsc.data(), stride, 1.61f, n);
                for (int64_t i = 0; i < n; ++i) {
                    EXPECT_EQ(0, std::memcmp(&yc[i],
                                             &ysc[i * stride],
                                             sizeof(float)))
                        << simd::tierName(t) << " n=" << n;
                    EXPECT_EQ(0, std::memcmp(&xc[i],
                                             &xsc[i * stride],
                                             sizeof(float)))
                        << simd::tierName(t) << " n=" << n;
                }
            }
        }
    }
}

/** The pre-dispatch AdamOptimizer::step inner loop, verbatim. */
void
adamReference(float *m, float *v, const float *g, float *w,
              int64_t n, float beta1, float beta2, float alpha,
              float eps)
{
    for (int64_t j = 0; j < n; ++j) {
        m[j] = beta1 * m[j] + (1.0f - beta1) * g[j];
        v[j] = beta2 * v[j] + (1.0f - beta2) * g[j] * g[j];
        w[j] -= alpha * m[j] / (std::sqrt(v[j]) + eps);
    }
}

/** The pre-dispatch combineGroup element loop, verbatim. */
void
combineReference(const std::vector<float *> &ptrs, int64_t offset,
                 int64_t n, double scale)
{
    for (int64_t k = offset; k < offset + n; ++k) {
        double acc = 0.0;
        for (float *p : ptrs)
            acc += p[k];
        const float v = static_cast<float>(acc * scale);
        for (float *p : ptrs)
            p[k] = v;
    }
}

bool
bitwiseEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    // memcmp must not see the null data() of an empty vector.
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     sizeof(float) * a.size()) == 0);
}

std::vector<float>
normals(Rng &rng, int64_t n)
{
    std::vector<float> out(static_cast<size_t>(n));
    for (float &x : out)
        x = static_cast<float>(rng.normal());
    return out;
}

TEST(SimdDispatch, AdamUpdateBitwiseMatchesScalarLoopEveryTier)
{
    // Every tier runs the optimizer's exact op order with IEEE
    // sqrt/div per lane, so it must equal the scalar loop bit for
    // bit — over several steps, so the bias-corrected alpha varies.
    const float beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
    const float lr = 3e-3f;
    for (int64_t n : {0, 1, 7, 15, 16, 17, 63, 1000}) {
        Rng rng(100 + n);
        const std::vector<float> w0 = normals(rng, n);
        std::vector<std::vector<float>> grads;
        for (int step = 0; step < 4; ++step) {
            grads.push_back(normals(rng, n));
            if (n > 0)
                grads.back()[0] = 0.0f; // zero gradient, v may stay 0
        }
        std::vector<float> rm(n, 0.0f), rv(n, 0.0f), rw = w0;
        std::vector<std::vector<float>> want;
        for (int step = 0; step < 4; ++step) {
            const double t = step + 1;
            const float alpha = static_cast<float>(
                lr * std::sqrt(1.0 - std::pow(beta2, t)) /
                (1.0 - std::pow(beta1, t)));
            adamReference(rm.data(), rv.data(), grads[step].data(),
                          rw.data(), n, beta1, beta2, alpha, eps);
            want.push_back(rm);
            want.push_back(rv);
            want.push_back(rw);
        }
        // zero_g must leave m/v/w untouched and zero g once read.
        for (bool zero_g : {false, true}) {
            for (simd::Tier tier : supportedTiers()) {
                std::vector<float> m(n, 0.0f), v(n, 0.0f), w = w0;
                for (int step = 0; step < 4; ++step) {
                    const double t = step + 1;
                    const float alpha = static_cast<float>(
                        lr * std::sqrt(1.0 - std::pow(beta2, t)) /
                        (1.0 - std::pow(beta1, t)));
                    std::vector<float> g = grads[step];
                    simd::adamUpdate(tier, m.data(), v.data(),
                                     g.data(), w.data(), n, beta1,
                                     beta2, alpha, eps, zero_g);
                    EXPECT_TRUE(bitwiseEqual(m, want[3 * step]))
                        << simd::tierName(tier) << " n=" << n;
                    EXPECT_TRUE(bitwiseEqual(v, want[3 * step + 1]))
                        << simd::tierName(tier) << " n=" << n;
                    EXPECT_TRUE(bitwiseEqual(w, want[3 * step + 2]))
                        << simd::tierName(tier) << " n=" << n;
                    EXPECT_TRUE(bitwiseEqual(
                        g, zero_g ? std::vector<float>(n, 0.0f)
                                  : grads[step]))
                        << simd::tierName(tier) << " n=" << n
                        << " zero_g=" << zero_g;
                }
            }
        }
    }
}

TEST(SimdDispatch, GeluBitwiseMatchesStdTanhReferenceEveryTier)
{
    // The vector tiers replicate libm's tanhf lane by lane, so every
    // tier must give Gelu::value/derivative (std::tanh) bit for bit,
    // in Train (y and dy/dx) and Infer (y only), with NaN exactly
    // where the reference is NaN. Inputs: every tanhf branch edge
    // and special class, a strided sweep over all 2^32 bit patterns
    // (~1M values), and every 37th float with |x| in [1/8, 4) (~2M):
    // the band where expm1f's reduced argument is largest, so where
    // a perturbed coefficient or a fused multiply-add shows first (a
    // full 2^32 sweep puts >97% of such mismatches there).
    std::vector<float> xs = test::geluSpecialInputs();
    constexpr uint64_t kStride = 4093;
    for (uint64_t b = 0; b < (uint64_t(1) << 32); b += kStride)
        xs.push_back(test::floatFromBits(static_cast<uint32_t>(b)));
    for (uint32_t b = 0x3e000000; b < 0x40800000; b += 37) {
        xs.push_back(test::floatFromBits(b));
        xs.push_back(test::floatFromBits(b | 0x80000000u));
    }
    const int64_t n = static_cast<int64_t>(xs.size());
    std::vector<float> want_y(xs.size()), want_d(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
        want_y[i] = Gelu::value(xs[i]);
        want_d[i] = Gelu::derivative(xs[i]);
    }
    for (simd::Tier tier : supportedTiers()) {
        std::vector<float> y(xs.size()), d(xs.size()), y_inf(xs.size());
        simd::gelu(tier, xs.data(), y.data(), d.data(), n);
        simd::gelu(tier, xs.data(), y_inf.data(), nullptr, n);
        int64_t bad = 0;
        for (size_t i = 0; i < xs.size(); ++i) {
            if (test::sameFloat(y[i], want_y[i]) &&
                test::sameFloat(d[i], want_d[i]) &&
                test::sameFloat(y_inf[i], want_y[i]))
                continue;
            if (++bad <= 8)
                ADD_FAILURE() << simd::tierName(tier) << " x=" << xs[i]
                              << " y=" << y[i] << "/" << y_inf[i]
                              << " want " << want_y[i]
                              << " dydx=" << d[i] << " want "
                              << want_d[i];
        }
        EXPECT_EQ(bad, 0) << simd::tierName(tier);
    }
}

TEST(SimdDispatch, GeluSpanLengthsStayInBounds)
{
    // Spans shorter than, equal to and just past one vector, and a
    // full parallelFor grain: every element matches the reference
    // and nothing outside [x, x + n) is written.
    constexpr float kGuard = 12345.0f;
    for (int64_t n : {0, 1, 7, 15, 16, 17, 63, 4096}) {
        Rng rng(400 + n);
        std::vector<float> xs = normals(rng, n);
        for (simd::Tier tier : supportedTiers()) {
            for (bool train : {true, false}) {
                std::vector<float> y(n + 2, kGuard), d(n + 2, kGuard);
                simd::gelu(tier, xs.data(), y.data() + 1,
                           train ? d.data() + 1 : nullptr, n);
                EXPECT_EQ(y.front(), kGuard);
                EXPECT_EQ(y.back(), kGuard);
                EXPECT_EQ(d.front(), kGuard);
                EXPECT_EQ(d.back(), kGuard);
                for (int64_t i = 0; i < n; ++i) {
                    EXPECT_TRUE(test::sameFloat(y[i + 1],
                                                Gelu::value(xs[i])))
                        << simd::tierName(tier) << " n=" << n;
                    EXPECT_TRUE(test::sameFloat(
                        d[i + 1],
                        train ? Gelu::derivative(xs[i]) : kGuard))
                        << simd::tierName(tier) << " n=" << n;
                }
            }
        }
    }
}

TEST(SimdDispatch, RankCombineBitwiseMatchesScalarLoopEveryTier)
{
    // Spans that start and end mid-vector, spans shorter than one
    // vector, and one that covers several full vectors.
    const int64_t kLen = 70;
    const std::pair<int64_t, int64_t> kSpans[] = {
        {0, 70}, {3, 5}, {5, 17}, {1, 33}, {16, 16},
        {7, 1},  {9, 0}, {31, 39}, {2, 63},
    };
    for (int ranks : {1, 2, 3, 4, 8}) {
        Rng rng(200 + ranks);
        std::vector<std::vector<float>> init;
        for (int d = 0; d < ranks; ++d) {
            init.push_back(normals(rng, kLen));
            init.back()[4] = -0.0f; // all-ranks -0 sums to +0
        }
        if (ranks >= 3) {
            // Only rank order turns these into 1 (any other order
            // absorbs the 1 into a 1e30 partial sum).
            init[0][6] = 1e30f;
            init[1][6] = -1e30f;
            init[2][6] = 1.0f;
        }
        for (double scale : {1.0, 1.0 / ranks}) {
            for (const auto &[offset, n] : kSpans) {
                std::vector<std::vector<float>> want = init;
                std::vector<float *> wp;
                for (auto &r : want)
                    wp.push_back(r.data());
                combineReference(wp, offset, n, scale);
                for (simd::Tier tier : supportedTiers()) {
                    std::vector<std::vector<float>> got = init;
                    std::vector<float *> gp;
                    for (auto &r : got)
                        gp.push_back(r.data());
                    simd::rankCombine(tier, gp.data(), ranks, offset,
                                      n, scale);
                    for (int d = 0; d < ranks; ++d) {
                        EXPECT_TRUE(bitwiseEqual(got[d], want[d]))
                            << simd::tierName(tier)
                            << " ranks=" << ranks << " rank=" << d
                            << " span=" << offset << "+" << n;
                    }
                }
            }
        }
    }
}

TEST(SimdDispatch, AllReduceSegmentsBitwiseMatchScalarLoopEveryTier)
{
    // Through the transport: segment boundaries fall mid-vector and
    // mid-chunk (the combine grain is 4096 elements), and some
    // segments are shorter than one vector.
    const std::vector<int64_t> kSegLens = {3,    4093, 10,  4100,
                                           5,    1,    8200};
    const simd::Tier initial = simd::tier();
    InProcessTransport transport;
    for (int ranks : {1, 2, 3, 4, 8}) {
        for (ReduceOp op : {ReduceOp::Mean, ReduceOp::Sum}) {
            Rng rng(300 + ranks);
            // storage[segment][rank]
            std::vector<std::vector<std::vector<float>>> init;
            for (int64_t len : kSegLens) {
                init.emplace_back();
                for (int d = 0; d < ranks; ++d)
                    init.back().push_back(normals(rng, len));
            }
            const double scale =
                op == ReduceOp::Mean ? 1.0 / ranks : 1.0;
            auto want = init;
            for (size_t e = 0; e < kSegLens.size(); ++e) {
                std::vector<float *> ptrs;
                for (auto &r : want[e])
                    ptrs.push_back(r.data());
                combineReference(ptrs, 0, kSegLens[e], scale);
            }
            for (simd::Tier tier : supportedTiers()) {
                simd::setTier(tier);
                auto got = init;
                CommGroup group;
                group.ranks = ranks;
                for (size_t e = 0; e < kSegLens.size(); ++e) {
                    std::vector<float *> ptrs;
                    for (auto &r : got[e])
                        ptrs.push_back(r.data());
                    group.segPtrs.push_back(ptrs);
                    group.segLens.push_back(kSegLens[e]);
                }
                group.finalize();
                transport.allReduce(CommPhase::DpReduce, group, op);
                for (size_t e = 0; e < kSegLens.size(); ++e) {
                    for (int d = 0; d < ranks; ++d) {
                        EXPECT_TRUE(
                            bitwiseEqual(got[e][d], want[e][d]))
                            << simd::tierName(tier)
                            << " ranks=" << ranks << " segment=" << e
                            << " rank=" << d;
                    }
                }
            }
        }
    }
    simd::setTier(initial);
}

TEST(SimdDispatch, TrainerBitwiseIdenticalPerTier)
{
    ASSERT_TRUE(kForceThreads);
    const simd::Tier initial = simd::tier();
    LmDataset data = tinyData(tinyModel().seqLen);
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        Trainer3d a(tinyConfig());
        Trainer3d b(tinyConfig());
        Rng rng_a(11), rng_b(11);
        for (int it = 0; it < 5; ++it) {
            const auto sa = a.trainIteration(data, rng_a);
            const auto sb = b.trainIteration(data, rng_b);
            ASSERT_EQ(sa.loss, sb.loss)
                << simd::tierName(t) << " iteration " << it;
        }
        EXPECT_EQ(bitwiseMismatch(a, b), 0) << simd::tierName(t);
    }
    simd::setTier(initial);
}

TEST(SimdDispatch, TrainerThreadGridInvariantPerTier)
{
    // Pooled vs forced-serial execution must agree bitwise in every
    // tier: kernel chunk grids are functions of the problem shape,
    // never of the worker count. Combined with the ctest legs at
    // OPTIMUS_THREADS in {1, 4, 8}, this pins full thread
    // invariance per tier.
    const simd::Tier initial = simd::tier();
    LmDataset data = tinyData(tinyModel().seqLen);
    for (simd::Tier t : supportedTiers()) {
        simd::setTier(t);
        Trainer3d pooled(tinyConfig());
        Rng rng_pooled(11);
        double pooled_losses[5];
        trainLosses(pooled, data, rng_pooled, pooled_losses);

        SerialRegion serial;
        Trainer3d inline_run(tinyConfig());
        Rng rng_inline(11);
        double inline_losses[5];
        trainLosses(inline_run, data, rng_inline, inline_losses);

        for (int it = 0; it < 5; ++it)
            ASSERT_EQ(pooled_losses[it], inline_losses[it])
                << simd::tierName(t) << " iteration " << it;
        EXPECT_EQ(bitwiseMismatch(pooled, inline_run), 0)
            << simd::tierName(t);
    }
    simd::setTier(initial);
}

TEST(SimdDispatch, TiersAgreeWithScalarToDocumentedTolerance)
{
    // Different tiers round reductions differently and agree only
    // to tolerance (DESIGN.md section 8): after 5 tiny iterations
    // the losses must match Scalar to 1% relative.
    const simd::Tier initial = simd::tier();
    LmDataset data = tinyData(tinyModel().seqLen);

    simd::setTier(simd::Tier::Scalar);
    Trainer3d scalar_run(tinyConfig());
    Rng rng_scalar(11);
    const double scalar_loss =
        trainLosses(scalar_run, data, rng_scalar);

    for (simd::Tier t : supportedTiers()) {
        if (t == simd::Tier::Scalar)
            continue;
        simd::setTier(t);
        Trainer3d run(tinyConfig());
        Rng rng(11);
        const double loss = trainLosses(run, data, rng);
        EXPECT_NEAR(loss, scalar_loss,
                    0.01 * std::fabs(scalar_loss))
            << simd::tierName(t);
    }
    simd::setTier(initial);
}

} // namespace
} // namespace optimus
