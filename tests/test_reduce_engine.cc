/**
 * @file
 * Tests for the bucketed, backward-overlapped gradient reduction
 * engine: bucket layout (capacity packing, oversized parameters,
 * exclusion), reduction correctness, bitwise identity with the
 * reference DataParallelReducer (the oracle), and the
 * IterationStats phase timers. Run at OPTIMUS_THREADS in {1, 4, 8}
 * via the ctest registrations in tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "data/corpus.hh"
#include "data/dataset.hh"
#include "parallel/reduce_engine.hh"
#include "parallel/trainer3d.hh"
#include "runtime/runtime.hh"

namespace optimus
{
namespace
{

ParamPtr
makeParam(const std::string &name, std::vector<int64_t> shape,
          float grad_fill)
{
    auto p = std::make_shared<Param>(name, Tensor(shape));
    p->grad.fill(grad_fill);
    return p;
}

/** D aligned worker lists with per-worker distinct gradients. */
std::vector<std::vector<ParamPtr>>
makeWorkerParams(int workers,
                 const std::vector<std::vector<int64_t>> &shapes)
{
    std::vector<std::vector<ParamPtr>> lists(workers);
    for (int d = 0; d < workers; ++d) {
        for (size_t j = 0; j < shapes.size(); ++j) {
            lists[d].push_back(makeParam(
                "p" + std::to_string(j), shapes[j],
                static_cast<float>(d + 1) * (j + 1)));
        }
    }
    return lists;
}

ReduceEngineConfig
exactConfig(int workers, int64_t bucket_bytes)
{
    ReduceEngineConfig config;
    config.workers = workers;
    config.bucketBytes = bucket_bytes;
    return config;
}

TEST(BucketLayout, PacksGreedilyByCapacity)
{
    // 16-float buckets (64 bytes). Params of 8, 8, 8 floats: the
    // first two share a bucket, the third starts a new one.
    auto lists = makeWorkerParams(2, {{8}, {8}, {8}});
    ReduceEngine engine(exactConfig(2, 64));
    engine.bind(lists, {});

    const auto &buckets = engine.buckets();
    ASSERT_EQ(buckets.size(), 2u);
    EXPECT_EQ(buckets[0].params, (std::vector<size_t>{0, 1}));
    EXPECT_EQ(buckets[0].offsets, (std::vector<int64_t>{0, 8}));
    EXPECT_EQ(buckets[0].elems, 16);
    EXPECT_EQ(buckets[1].params, (std::vector<size_t>{2}));
    EXPECT_EQ(buckets[1].elems, 8);
    EXPECT_FALSE(buckets[0].compressed);
}

TEST(BucketLayout, OversizedParamGetsOwnBucket)
{
    // Bucket capacity 64 bytes = 16 floats; the 100-float param
    // exceeds it and must land alone, unsplit.
    auto lists = makeWorkerParams(2, {{4}, {100}, {4}});
    ReduceEngine engine(exactConfig(2, 64));
    engine.bind(lists, {});

    const auto &buckets = engine.buckets();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_EQ(buckets[0].params, (std::vector<size_t>{0}));
    EXPECT_EQ(buckets[1].params, (std::vector<size_t>{1}));
    EXPECT_EQ(buckets[1].elems, 100);
    EXPECT_EQ(buckets[2].params, (std::vector<size_t>{2}));
}

TEST(BucketLayout, TinyParamAloneInBucket)
{
    auto lists = makeWorkerParams(2, {{1}});
    ReduceEngine engine(exactConfig(2, 1 << 20));
    engine.bind(lists, {});

    const auto &buckets = engine.buckets();
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_EQ(buckets[0].elems, 1);
    EXPECT_EQ(buckets[0].params, (std::vector<size_t>{0}));
}

TEST(BucketLayout, ExcludedParamsGetNoBucket)
{
    auto lists = makeWorkerParams(2, {{8}, {8}, {8}});
    std::vector<const Param *> excluded;
    for (int d = 0; d < 2; ++d)
        excluded.push_back(lists[d][1].get());
    ReduceEngine engine(exactConfig(2, 1 << 20));
    engine.bind(lists, excluded);

    const auto &buckets = engine.buckets();
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_EQ(buckets[0].params, (std::vector<size_t>{0, 2}));
    EXPECT_EQ(buckets[0].elems, 16);
}

/** One iteration's engine protocol: arm, D replica-done signals
 *  (the D-th enqueues every bucket), drain, collect. */
ReduceVolume
runEngine(ReduceEngine &engine, int workers, int64_t iteration = 0,
          double *busy = nullptr)
{
    TaskGroup group;
    engine.beginIteration(group, iteration);
    for (int d = 0; d < workers; ++d)
        engine.notifyReplicaDone();
    group.wait();
    return engine.collect(busy);
}

TEST(ReduceEngineExact, AveragesAcrossWorkers)
{
    // Worker d's grad for param j is (d+1)*(j+1); the D=2 mean for
    // param j is 1.5*(j+1).
    auto lists = makeWorkerParams(2, {{6}, {10}, {3}});
    ReduceEngine engine(exactConfig(2, 32));
    engine.bind(lists, {});

    double busy = 0.0;
    const ReduceVolume volume = runEngine(engine, 2, 0, &busy);

    for (int d = 0; d < 2; ++d) {
        for (size_t j = 0; j < lists[d].size(); ++j) {
            const Tensor &g = lists[d][j]->grad;
            for (int64_t i = 0; i < g.size(); ++i)
                ASSERT_FLOAT_EQ(g[i], 1.5f * (j + 1))
                    << "d=" << d << " j=" << j;
        }
    }
    EXPECT_EQ(volume.exactBytes, 4 * (6 + 10 + 3));
    EXPECT_EQ(volume.actualBytes, volume.exactBytes);
    EXPECT_GE(busy, 0.0);
}

TEST(ReduceEngineCompressed, DedicatedBucketsAndState)
{
    // Rank-2 params with rows, cols >= 2 are compressible; the 1-D
    // param is not and must stay in an exact bucket.
    ReduceEngineConfig config = exactConfig(2, 1 << 20);
    config.dp.enabled = true;
    config.compressStage = true;
    config.seed = 9;
    // Matrices large enough that the rank-8 payload undercuts the
    // dense size (rank clamps to min(rows, cols) on tiny shapes).
    auto lists = makeWorkerParams(2, {{32, 32}, {7}, {24, 16}});
    ReduceEngine engine(config);
    engine.bind(lists, {});

    const auto &buckets = engine.buckets();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_TRUE(buckets[0].compressed);
    EXPECT_FALSE(buckets[1].compressed);
    EXPECT_TRUE(buckets[2].compressed);

    const ReduceVolume volume = runEngine(engine, 2);
    EXPECT_EQ(volume.exactBytes, 4 * (32 * 32 + 7 + 24 * 16));
    EXPECT_LT(volume.actualBytes, volume.exactBytes);
    // Warm Q matrices + residuals persist.
    EXPECT_GT(engine.stateBytes(), 0);
    const auto norms = engine.residualNorms();
    ASSERT_EQ(norms.size(), 2u);
    engine.reset();
    for (const double n : engine.residualNorms())
        EXPECT_EQ(n, 0.0);
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

Trainer3dConfig
gridConfig(int d_ways)
{
    Trainer3dConfig config;
    config.model = tinyModel();
    config.dataParallel = d_ways;
    config.pipelineStages = 2;
    config.microBatches = 2;
    config.microBatchSize = 2;
    config.learningRate = 1e-3f;
    config.useAdam = true;
    // Small buckets so the tiny model still produces several
    // buckets per stage and exercises the packing logic.
    config.bucketBytes = 2048;
    return config;
}

/** Bitwise equality of two float tensors. */
bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * a.size()) == 0;
}

/**
 * Engine vs oracle: the bucketed ReduceEngine and the reference
 * DataParallelReducer, bound to two independent copies of the same
 * per-worker parameter lists, must agree bit for bit — gradients,
 * volumes and error-feedback residuals — on every iteration. The
 * lists mix compressible matrices, 1-D params, a param larger than
 * the bucket, and an excluded param; each iteration draws fresh
 * seeded gradients, so warm PowerSGD state and residuals carry
 * across iterations exactly as in training.
 */
void
runOracle(int workers, bool compressed)
{
    // 64-float buckets: {70} and the matrices exceed one bucket.
    const std::vector<std::vector<int64_t>> shapes = {
        {24, 16}, {7}, {40, 20}, {12, 8}, {5}, {3, 2}, {70}, {9}};
    const size_t excluded = 3;
    auto engine_lists = makeWorkerParams(workers, shapes);
    auto oracle_lists = makeWorkerParams(workers, shapes);
    std::vector<const Param *> engine_excluded, oracle_excluded;
    for (int d = 0; d < workers; ++d) {
        engine_excluded.push_back(engine_lists[d][excluded].get());
        oracle_excluded.push_back(oracle_lists[d][excluded].get());
    }

    DpCompressionConfig dp;
    dp.enabled = compressed;
    dp.errorFeedback = true;
    dp.spec.rank = 4;
    const uint64_t seed = 0x5eed;
    ReduceEngineConfig ec;
    ec.dp = dp;
    ec.compressStage = compressed;
    ec.workers = workers;
    ec.seed = seed;
    ec.bucketBytes = 64 * sizeof(float);
    ReduceEngine engine(ec);
    engine.bind(engine_lists, engine_excluded);
    DataParallelReducer oracle(dp, compressed, workers, seed);

    for (int it = 0; it < 10; ++it) {
        // Fresh gradients, written in place (the engine caches the
        // gradient storage it bound to) into both copies.
        for (int d = 0; d < workers; ++d) {
            for (size_t j = 0; j < shapes.size(); ++j) {
                Rng rng(1000 * it + 100 * d + j);
                Tensor &ge = engine_lists[d][j]->grad;
                Tensor &go = oracle_lists[d][j]->grad;
                for (int64_t i = 0; i < ge.size(); ++i) {
                    const float v = static_cast<float>(rng.normal());
                    ge[i] = v;
                    go[i] = v;
                }
            }
        }

        const ReduceVolume ve = runEngine(engine, workers, it);
        const ReduceVolume vo =
            oracle.reduce(oracle_lists, oracle_excluded);

        ASSERT_EQ(ve.exactBytes, vo.exactBytes) << "iteration " << it;
        ASSERT_EQ(ve.actualBytes, vo.actualBytes) << "iteration " << it;
        if (compressed) {
            ASSERT_LT(ve.actualBytes, ve.exactBytes);
        }
        for (int d = 0; d < workers; ++d) {
            for (size_t j = 0; j < shapes.size(); ++j) {
                ASSERT_TRUE(sameBits(engine_lists[d][j]->grad,
                                     oracle_lists[d][j]->grad))
                    << "iteration " << it << " worker " << d
                    << " param " << j;
            }
        }
        ASSERT_EQ(engine.residualNorms(), oracle.residualNorms())
            << "iteration " << it;
    }
    EXPECT_EQ(engine.stateBytes(), oracle.stateBytes());
}

TEST(EngineOracle, ExactMatchesReferenceReducerBitwise)
{
    for (const int workers : {1, 2, 3}) {
        SCOPED_TRACE("D=" + std::to_string(workers));
        runOracle(workers, false);
    }
}

TEST(EngineOracle, CompressedMatchesReferenceReducerBitwise)
{
    for (const int workers : {1, 2, 3}) {
        SCOPED_TRACE("D=" + std::to_string(workers));
        runOracle(workers, true);
    }
}

TEST(StepPhaseTimes, FieldsAreSane)
{
    // D == 1 runs the same engine path as D > 1 (inline on a
    // serial pool).
    for (const int d_ways : {1, 2}) {
        Trainer3d trainer(gridConfig(d_ways));
        LmDataset data = tinyData(tinyModel().seqLen);
        Rng rng(3);
        const IterationStats stats =
            trainer.trainIteration(data, rng);

        const StepPhaseTimes &t = stats.phases;
        EXPECT_GT(t.forwardBackward, 0.0);
        EXPECT_GE(t.dpReduce, 0.0);
        EXPECT_GE(t.dpReduceBusy, 0.0);
        EXPECT_GE(t.embSync, 0.0);
        EXPECT_GE(t.optimizer, 0.0);
        // total spans the replica loop through the optimizer.
        EXPECT_GE(t.total, t.forwardBackward);
        EXPECT_GE(t.total, t.dpReduce + t.embSync + t.optimizer);
        // hidden time is exactly the busy/exposed difference.
        EXPECT_DOUBLE_EQ(t.overlapHidden,
                         std::max(0.0, t.dpReduceBusy - t.dpReduce));
        EXPECT_GT(stats.dpVolume.exactBytes, 0);
    }
}

} // namespace
} // namespace optimus
