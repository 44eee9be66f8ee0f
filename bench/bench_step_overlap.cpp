/**
 * @file
 * Training-step benchmark for the bucketed, backward-overlapped
 * gradient reduction engine: full Trainer3d iterations at several
 * (D, P, M) grid points, with the per-phase wall-time breakdown from
 * IterationStats — how much reduce time the overlapped queue hides
 * behind backward, and how much stays exposed. Writes
 * BENCH_step.json.
 *
 * Every point also replays the same run inside a SerialRegion and
 * compares every parameter of every replica bit for bit with the
 * pooled run, so a schedule-dependent result fails the bench.
 *
 * Usage: bench_step_overlap [--iters 3] [--reps 9]
 *        [--bucket-kb 256] [--dp-compress] [--smoke]
 * --smoke shrinks the run to one tiny grid point, for ctest /
 * sanitizer jobs. Thread count comes from OPTIMUS_THREADS (default:
 * hardware).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "data/corpus.hh"
#include "data/dataset.hh"
#include "parallel/trainer3d.hh"
#include "runtime/runtime.hh"
#include "tensor/arena.hh"
#include "util/cli.hh"

using namespace optimus;

namespace
{

struct GridPoint
{
    int d, p, m;
};

/** Fastest per-step timing of one grid point. */
struct StepTiming
{
    /** Starts above any real sample; measureRep() keeps the min. */
    double step = 1e30;
    StepPhaseTimes phases;
};

double
seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

GptConfig
benchModel(bool smoke)
{
    GptConfig model;
    if (smoke) {
        model.vocab = 24;
        model.hidden = 16;
        model.layers = 4;
        model.heads = 2;
        model.seqLen = 8;
    } else {
        // Small per-step token count relative to the parameter
        // count, so the reduce phase is a meaningful slice of the
        // step rather than vanishing behind the GEMMs.
        model.vocab = 64;
        model.hidden = 64;
        model.layers = 8;
        model.heads = 4;
        model.seqLen = 8;
    }
    model.seed = 77;
    return model;
}

Trainer3dConfig
makeConfig(const GptConfig &model, const GridPoint &point,
           int64_t bucket_bytes, bool compress, int micro_batch)
{
    Trainer3dConfig config;
    config.model = model;
    config.dataParallel = point.d;
    config.pipelineStages = point.p;
    config.microBatches = point.m;
    config.microBatchSize = micro_batch;
    config.bucketBytes = bucket_bytes;
    if (compress) {
        config.dp.enabled = true;
        config.dp.stageFraction = 0.75;
    }
    return config;
}

LmDataset
benchData(const GptConfig &model)
{
    CorpusConfig cc;
    cc.vocab = model.vocab;
    cc.totalTokens = 20000;
    cc.seed = 5;
    SyntheticCorpus corpus(cc);
    return {corpus.train(), model.seqLen};
}

/**
 * One measurement repetition: run @p iters consecutive iterations,
 * timing each one individually, and fold the fastest into @p best.
 * All iterations perform identical work, so the minimum over every
 * sample is the sharpest available estimate of the step's noise
 * floor; the phase breakdown kept is the one from the winning
 * iteration.
 */
void
measureRep(Trainer3d &trainer, const LmDataset &data, Rng &rng,
           int iters, StepTiming &best)
{
    for (int it = 0; it < iters; ++it) {
        const double t0 = seconds();
        const IterationStats stats =
            trainer.trainIteration(data, rng);
        const double step = seconds() - t0;
        if (step < best.step) {
            best.step = step;
            best.phases = stats.phases;
        }
    }
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
            for (size_t j = 0; j < pa.size(); ++j) {
                if (std::memcmp(pa[j]->value.data(),
                                pb[j]->value.data(),
                                sizeof(float) *
                                    pa[j]->value.size()) != 0)
                    ++mismatches;
            }
        }
    }
    return mismatches;
}

void
printTimingJson(FILE *f, const StepTiming &t)
{
    std::fprintf(f,
                 "      \"step\": %.6f, \"forward_backward\": %.6f, "
                 "\"dp_reduce\": %.6f, \"dp_reduce_busy\": %.6f, "
                 "\"overlap_hidden\": %.6f, \"emb_sync\": %.6f, "
                 "\"optimizer\": %.6f,\n",
                 t.step, t.phases.forwardBackward, t.phases.dpReduce,
                 t.phases.dpReduceBusy, t.phases.overlapHidden,
                 t.phases.embSync, t.phases.optimizer);
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const bool smoke = args.getBool("smoke", false);
    const int iters =
        static_cast<int>(args.getInt("iters", smoke ? 2 : 3));
    const int reps =
        static_cast<int>(args.getInt("reps", smoke ? 2 : 9));
    const int64_t bucket_bytes =
        args.getInt("bucket-kb", 256) * 1024;
    const bool compress = args.getBool("dp-compress", false);

    const GptConfig model = benchModel(smoke);
    const LmDataset data = benchData(model);

    std::vector<GridPoint> points;
    if (smoke)
        points = {{2, 2, 2}};
    else
        points = {{1, 2, 4}, {2, 2, 4}, {2, 4, 4}, {4, 2, 2}};

    std::printf("=== training-step overlap benchmark ===\n");
    std::printf(
        "pool threads: %d  iters: %d  reps: %d  bucket: %lld KiB  "
        "dp-compress: %d%s\n\n",
        runtimeThreads(), iters, reps,
        static_cast<long long>(bucket_bytes / 1024), compress,
        smoke ? "  [smoke]" : "");

    FILE *f = std::fopen("BENCH_step.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_step.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"step_overlap\",\n");
    std::fprintf(f, "  \"threads\": %d,\n", runtimeThreads());
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"dp_compress\": %s,\n",
                 compress ? "true" : "false");
    std::fprintf(f, "  \"unit\": \"seconds/step\",\n");
    std::fprintf(f, "  \"points\": [\n");

    bool identity_ok = true;
    for (size_t pi = 0; pi < points.size(); ++pi) {
        const GridPoint &point = points[pi];
        std::printf("D=%d P=%d M=%d\n", point.d, point.p, point.m);

        const Trainer3dConfig config = makeConfig(
            model, point, bucket_bytes, compress, smoke ? 2 : 1);
        Trainer3d trainer(config);
        Rng rng(11);
        // Warm-up: two steps, matching the arena layer's warmup
        // definition — the first sizes the arenas (and spins up the
        // pool, binds buckets), the second finishes any lazily-built
        // persistent state whose placement kept step one's slabs
        // from rewinding. From step three on, heapAllocs must stay
        // flat (echoed below).
        trainer.trainIteration(data, rng);
        trainer.trainIteration(data, rng);
        StepTiming timing;
        // Steady-state allocation deltas over the measured reps:
        // with arenas on (OPTIMUS_ARENA default) heapAllocs must
        // stay +0 here — the same contract alloc_gate enforces —
        // while arenaHits counts the recycled-tensor traffic.
        const int64_t heap_before = mem::heapAllocs();
        const int64_t hits_before = mem::arenaHits();
        for (int rep = 0; rep < reps; ++rep)
            measureRep(trainer, data, rng, iters, timing);
        const int64_t heap_delta = mem::heapAllocs() - heap_before;
        const int64_t hits_delta = mem::arenaHits() - hits_before;
        std::printf("  step %8.3f ms  (fb %7.3f  reduce %7.3f  busy "
                    "%7.3f  hidden %7.3f)\n",
                    1e3 * timing.step,
                    1e3 * timing.phases.forwardBackward,
                    1e3 * timing.phases.dpReduce,
                    1e3 * timing.phases.dpReduceBusy,
                    1e3 * timing.phases.overlapHidden);

        // The same run with every parallel region inline must end
        // on bit-identical parameters.
        Trainer3d serial(config);
        {
            SerialRegion inline_regions;
            Rng serial_rng(11);
            for (int it = 0; it < 2 + reps * iters; ++it)
                serial.trainIteration(data, serial_rng);
        }
        const int64_t mismatch = bitwiseMismatch(trainer, serial);
        if (mismatch != 0) {
            identity_ok = false;
            std::fprintf(stderr,
                         "IDENTITY VIOLATION: %lld tensors differ "
                         "between pooled and serial runs at D=%d "
                         "P=%d M=%d\n",
                         static_cast<long long>(mismatch), point.d,
                         point.p, point.m);
        }
        std::printf("  mem: steady-state heapAllocs +%lld  "
                    "arenaHits +%lld\n\n",
                    static_cast<long long>(heap_delta),
                    static_cast<long long>(hits_delta));

        std::fprintf(f, "    {\"d\": %d, \"p\": %d, \"m\": %d,\n",
                     point.d, point.p, point.m);
        printTimingJson(f, timing);
        std::fprintf(f,
                     "      \"steady_heap_allocs\": %lld, "
                     "\"identity_ok\": %s}%s\n",
                     static_cast<long long>(heap_delta),
                     mismatch == 0 ? "true" : "false",
                     pi + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"mem\": {\"arena\": %s, \"heap_allocs\": %lld, "
                 "\"arena_hits\": %lld, \"heap_fallbacks\": %lld, "
                 "\"peak_bytes\": %lld}\n}\n",
                 arenaEnabled() ? "true" : "false",
                 static_cast<long long>(mem::heapAllocs()),
                 static_cast<long long>(mem::arenaHits()),
                 static_cast<long long>(mem::heapFallbacks()),
                 static_cast<long long>(mem::peakBytes()));
    std::fclose(f);

    std::printf("mem: arena=%d lifetime heapAllocs=%lld "
                "arenaHits=%lld fallbacks=%lld peakBytes=%lld\n",
                arenaEnabled() ? 1 : 0,
                static_cast<long long>(mem::heapAllocs()),
                static_cast<long long>(mem::arenaHits()),
                static_cast<long long>(mem::heapFallbacks()),
                static_cast<long long>(mem::peakBytes()));

    std::printf("results written to BENCH_step.json\n");
    if (!identity_ok) {
        std::fprintf(stderr,
                     "FAILED: pooled and serial runs are not "
                     "bitwise equal\n");
        return 1;
    }
    return 0;
}
