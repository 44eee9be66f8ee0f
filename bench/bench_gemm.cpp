/**
 * @file
 * GEMM kernel microbenchmark tracking the perf trajectory of the
 * execution runtime. Measures GFLOP/s of the naive reference kernel
 * and of the blocked kernel at every supported SIMD dispatch tier
 * (scalar / avx2 / avx512 — forced via simd::setTier, the same
 * switch OPTIMUS_SIMD drives), single-threaded and on the full
 * pool, at square sizes 64..1024. Next to them, single-threaded
 * per tier, it times the three GEMM forms a Linear layer runs (NN
 * forward Y = X W, TN weight gradient dW = X^T dY, NT input
 * gradient dX = dY W^T) at the trainers' shapes: rows 16 x hidden
 * 64 and rows 32 x hidden 32, for the qkv/proj/fc1/fc2 layers.
 * Writes BENCH_gemm.json so the numbers are diffable across PRs;
 * the top-level fields keep their historical meaning (the
 * auto-dispatched kernel) and a per-tier breakdown rides alongside.
 *
 * Usage: bench_gemm [--max-size 1024] [--reps 3]
 * Thread count comes from OPTIMUS_THREADS (default: hardware).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/runtime.hh"
#include "tensor/matmul.hh"
#include "tensor/simd.hh"
#include "tensor/tensor.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/table_printer.hh"

using namespace optimus;

namespace
{

using Kernel = void (*)(float *, const float *, const float *,
                        int64_t, int64_t, int64_t, bool);

double
seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-reps GFLOP/s for one kernel at size n. */
double
measure(Kernel kernel, const Tensor &a, const Tensor &b, Tensor &c,
        int reps)
{
    const int64_t n = a.rows();
    const double flops = 2.0 * n * n * n;
    // Warm-up run primes caches and the thread pool.
    kernel(c.data(), a.data(), b.data(), n, n, n, false);
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const double t0 = seconds();
        kernel(c.data(), a.data(), b.data(), n, n, n, false);
        const double dt = seconds() - t0;
        const double gflops = flops / dt * 1e-9;
        if (gflops > best)
            best = gflops;
    }
    return best;
}

void
blockedSerial(float *c, const float *a, const float *b, int64_t m,
              int64_t k, int64_t n, bool accumulate)
{
    SerialRegion serial;
    gemm(c, a, b, m, k, n, accumulate);
}

struct TierNumbers
{
    simd::Tier tier;
    double serial = 0.0, threaded = 0.0;
};

struct Row
{
    int64_t size;
    double naive;
    std::vector<TierNumbers> tiers;

    const TierNumbers &
    forTier(simd::Tier t) const
    {
        for (const TierNumbers &tn : tiers)
            if (tn.tier == t)
                return tn;
        return tiers.front();
    }
};

/** One Linear GEMM at a trainer shape (logical m x k x n). */
struct LinearCase
{
    int64_t rows, hidden;
    const char *layer;
    const char *form;
    int64_t m, k, n;
    std::vector<std::pair<simd::Tier, double>> gflops;
};

/**
 * The NN/TN/NT GEMMs of a Linear [in -> out] layer at @p rows rows:
 * forward X[rows,in] W[in,out]; weight gradient X^T dY with
 * m = in, k = rows, n = out; input gradient dY W^T with m = rows,
 * k = out, n = in.
 */
void
addLinearCases(std::vector<LinearCase> &out, int64_t rows,
               int64_t hidden)
{
    const struct
    {
        const char *name;
        int64_t in, out;
    } layers[] = {{"qkv", hidden, 3 * hidden},
                  {"proj", hidden, hidden},
                  {"fc1", hidden, 4 * hidden},
                  {"fc2", 4 * hidden, hidden}};
    for (const auto &l : layers) {
        out.push_back({rows, hidden, l.name, "NN", rows, l.in, l.out,
                       {}});
        out.push_back({rows, hidden, l.name, "TN", l.in, rows, l.out,
                       {}});
        out.push_back({rows, hidden, l.name, "NT", rows, l.out, l.in,
                       {}});
    }
}

/**
 * Best-of-reps single-thread GFLOP/s of one Linear GEMM form. One
 * call at these shapes lasts microseconds, so each sample repeats
 * the accumulate call for ~1e8 flops (a few ms).
 */
double
measureLinear(const LinearCase &lc, int reps, Rng &rng)
{
    const bool ta = lc.form[0] == 'T';
    const bool tb = lc.form[1] == 'T';
    Tensor a = ta ? Tensor::randn({lc.k, lc.m}, rng)
                  : Tensor::randn({lc.m, lc.k}, rng);
    Tensor b = tb ? Tensor::randn({lc.n, lc.k}, rng)
                  : Tensor::randn({lc.k, lc.n}, rng);
    Tensor c({lc.m, lc.n});
    auto once = [&] {
        if (ta)
            matmulAccTN(c, a, b);
        else if (tb)
            matmulAccNT(c, a, b);
        else
            matmulAcc(c, a, b);
    };
    SerialRegion serial;
    once(); // warm-up
    const double flops = 2.0 * lc.m * lc.k * lc.n;
    const int64_t iters =
        std::max<int64_t>(1, static_cast<int64_t>(1e8 / flops));
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const double t0 = seconds();
        for (int64_t i = 0; i < iters; ++i)
            once();
        const double gflops =
            flops * static_cast<double>(iters) / (seconds() - t0) *
            1e-9;
        if (gflops > best)
            best = gflops;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const int64_t max_size = args.getInt("max-size", 1024);
    const int reps = static_cast<int>(args.getInt("reps", 3));

    const simd::Tier auto_tier = simd::tier();
    std::vector<simd::Tier> tiers;
    for (simd::Tier t : {simd::Tier::Scalar, simd::Tier::Avx2,
                         simd::Tier::Avx512})
        if (simd::supported(t))
            tiers.push_back(t);

    std::printf("=== GEMM kernel microbenchmark ===\n");
    std::printf("pool threads: %d, dispatch tier: %s\n\n",
                runtimeThreads(), simd::tierName(auto_tier));

    std::vector<Row> rows;
    Rng rng(7);
    for (int64_t n = 64; n <= max_size; n *= 2) {
        Tensor a = Tensor::randn({n, n}, rng);
        Tensor b = Tensor::randn({n, n}, rng);
        Tensor c({n, n});
        Row row;
        row.size = n;
        row.naive = measure(gemmReference, a, b, c, reps);
        std::printf("%5lld: naive %7.2f\n",
                    static_cast<long long>(n), row.naive);
        for (simd::Tier t : tiers) {
            simd::setTier(t);
            TierNumbers tn;
            tn.tier = t;
            tn.serial = measure(blockedSerial, a, b, c, reps);
            tn.threaded = measure(gemm, a, b, c, reps);
            row.tiers.push_back(tn);
            std::printf("       %-6s 1t %7.2f (%.2fx)  %dt %7.2f "
                        "(%.2fx)\n",
                        simd::tierName(t), tn.serial,
                        tn.serial / row.naive, runtimeThreads(),
                        tn.threaded, tn.threaded / row.naive);
        }
        simd::setTier(auto_tier);
        rows.push_back(row);
    }

    std::vector<LinearCase> linear;
    addLinearCases(linear, 16, 64);
    addLinearCases(linear, 32, 32);
    std::printf("\nLinear shapes (1 thread, GFLOP/s):\n");
    for (LinearCase &lc : linear) {
        std::printf("  rows %2lld hidden %2lld %-4s %s %3lldx%3lldx%3lld",
                    static_cast<long long>(lc.rows),
                    static_cast<long long>(lc.hidden), lc.layer,
                    lc.form, static_cast<long long>(lc.m),
                    static_cast<long long>(lc.k),
                    static_cast<long long>(lc.n));
        for (simd::Tier t : tiers) {
            simd::setTier(t);
            const double g = measureLinear(lc, reps, rng);
            lc.gflops.emplace_back(t, g);
            std::printf("  %s %7.2f", simd::tierName(t), g);
        }
        std::printf("\n");
    }
    simd::setTier(auto_tier);

    FILE *f = std::fopen("BENCH_gemm.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_gemm.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"gemm\",\n");
    std::fprintf(f, "  \"threads\": %d,\n", runtimeThreads());
    std::fprintf(f, "  \"tier\": \"%s\",\n",
                 simd::tierName(auto_tier));
    std::fprintf(f, "  \"unit\": \"GFLOP/s\",\n  \"sizes\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const TierNumbers &active = r.forTier(auto_tier);
        std::fprintf(f,
                     "    {\"n\": %lld, \"naive\": %.3f, "
                     "\"blocked_1thread\": %.3f, "
                     "\"blocked_pool\": %.3f, "
                     "\"speedup_1thread\": %.3f, "
                     "\"speedup_pool\": %.3f,\n     \"tiers\": {",
                     static_cast<long long>(r.size), r.naive,
                     active.serial, active.threaded,
                     active.serial / r.naive,
                     active.threaded / r.naive);
        for (size_t j = 0; j < r.tiers.size(); ++j) {
            const TierNumbers &tn = r.tiers[j];
            std::fprintf(f,
                         "\"%s\": {\"blocked_1thread\": %.3f, "
                         "\"blocked_pool\": %.3f}%s",
                         simd::tierName(tn.tier), tn.serial,
                         tn.threaded,
                         j + 1 < r.tiers.size() ? ", " : "");
        }
        std::fprintf(f, "}}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"linear_shapes\": [\n");
    for (size_t i = 0; i < linear.size(); ++i) {
        const LinearCase &lc = linear[i];
        std::fprintf(f,
                     "    {\"rows\": %lld, \"hidden\": %lld, "
                     "\"layer\": \"%s\", \"form\": \"%s\", "
                     "\"m\": %lld, \"k\": %lld, \"n\": %lld, "
                     "\"tiers_1thread\": {",
                     static_cast<long long>(lc.rows),
                     static_cast<long long>(lc.hidden), lc.layer,
                     lc.form, static_cast<long long>(lc.m),
                     static_cast<long long>(lc.k),
                     static_cast<long long>(lc.n));
        for (size_t j = 0; j < lc.gflops.size(); ++j)
            std::fprintf(f, "\"%s\": %.3f%s",
                         simd::tierName(lc.gflops[j].first),
                         lc.gflops[j].second,
                         j + 1 < lc.gflops.size() ? ", " : "");
        std::fprintf(f, "}}%s\n", i + 1 < linear.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nresults written to BENCH_gemm.json\n");
    return 0;
}
