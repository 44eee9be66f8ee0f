/**
 * @file
 * Data-parallel gradient reduction with selective stage compression
 * (Section 7) and embedding synchronization with the fused
 * single-all-reduce optimization (Section 6).
 *
 * Replicas are simulated in-process: each data-parallel worker owns
 * private Param objects, and "all-reduce" functions combine their
 * gradient tensors exactly the way the collective would, so replica
 * divergence (or the lack of it) is real, not assumed.
 */

#ifndef OPTIMUS_PARALLEL_DATA_PARALLEL_HH
#define OPTIMUS_PARALLEL_DATA_PARALLEL_HH

#include <map>
#include <memory>
#include <vector>

#include "comm/transport.hh"
#include "compress/powersgd.hh"
#include "nn/param.hh"

namespace optimus
{

/**
 * Exact mean all-reduce over per-worker tensors (double accum).
 * Thin wrapper over defaultTransport() — library/test convenience.
 */
void allReduceAverage(const std::vector<Tensor *> &tensors);

/**
 * Exact sum all-reduce over per-worker tensors (double accum).
 * Thin wrapper over defaultTransport() — library/test convenience.
 */
void allReduceSum(const std::vector<Tensor *> &tensors);

/** Data-parallel compression configuration (selective stages). */
struct DpCompressionConfig
{
    /** Compress data-parallel traffic at all. */
    bool enabled = false;
    /**
     * Fraction of pipeline stages whose DP traffic is compressed,
     * starting from stage 0 (the critical-path end). Paper: 0.75.
     */
    double stageFraction = 0.75;
    /** Per-worker error feedback (PowerSGD-style residuals). */
    bool errorFeedback = true;
    /** Compression algorithm (paper: PowerSGD rank 128). */
    CompressorSpec spec{CompressorKind::PowerSgd, 8, 0.01, 1};
};

/** Whether @p stage (of @p stages) is selected for compression. */
bool stageSelectedForCompression(const DpCompressionConfig &config,
                                 int stage, int stages);

/**
 * Volume bookkeeping from one reduction — a thin view over the
 * exact/wire byte totals of the reduction's transport events.
 */
struct ReduceVolume
{
    int64_t exactBytes = 0;   ///< what uncompressed DP would send
    int64_t actualBytes = 0;  ///< what was logically sent

    void operator+=(const ReduceVolume &other)
    {
        // optlint:allow(COM01) event-derived view-merge.
        exactBytes += other.exactBytes;
        actualBytes += other.actualBytes; // optlint:allow(COM01)
    }
};

/**
 * Reduces the gradients of one pipeline stage across D data-parallel
 * workers every iteration. Holds per-parameter DistributedPowerSgd
 * state and per-worker residuals so error feedback spans iterations
 * (which is exactly what makes DP compression stale, per the paper).
 *
 * The trainer reduces through the bucketed ReduceEngine; this
 * straight per-parameter walk is the reference oracle the engine is
 * tested against bit for bit (test_reduce_engine), and compressible()
 * is the one predicate both share.
 */
class DataParallelReducer
{
  public:
    /**
     * @param config Compression policy.
     * @param compress_stage Whether this stage was selected.
     * @param workers Data-parallel width D.
     * @param seed Reducer-local seed.
     * @param transport Transport the reductions go through
     *        (defaultTransport() when null).
     */
    DataParallelReducer(const DpCompressionConfig &config,
                        bool compress_stage, int workers,
                        uint64_t seed,
                        Transport *transport = nullptr);

    /**
     * Average gradients of aligned parameter lists (one list per
     * worker; index j of every list is the same logical parameter).
     * Parameters in @p excluded are skipped entirely (the embedding
     * tables, which the embedding synchronizer owns).
     */
    ReduceVolume reduce(
        const std::vector<std::vector<ParamPtr>> &worker_params,
        const std::vector<const Param *> &excluded);

    /** True when a parameter qualifies for low-rank compression. */
    static bool compressible(const Param &param);

    /** Per-worker residual error norms (diagnostics / tests). */
    std::vector<double> residualNorms() const;

    /** Reset compressor warm state and residuals. */
    void reset();

    /** Persistent state bytes (warm Q matrices + residuals). */
    int64_t stateBytes() const;

    bool compressesStage() const { return compressStage_; }

  private:
    DpCompressionConfig config_;
    bool compressStage_;
    int workers_;
    uint64_t seed_;
    Transport *transport_;
    /** Per-parameter-index compressor state. */
    std::map<size_t, std::unique_ptr<DistributedPowerSgd>> dps_;
    /** residuals_[param index][worker]. */
    std::map<size_t, std::vector<Tensor>> residuals_;
    /** Persistent error-fed input scratch (per param, per worker). */
    std::map<size_t, std::vector<Tensor>> fedScratch_;
    /** Persistent mean-reconstruction scratch per param. */
    std::map<size_t, Tensor> meanScratch_;
    /**
     * Cached single-parameter collective groups for the exact path,
     * rebuilt if a parameter's gradient storage ever moves; in the
     * steady state (stable Param lists) the per-call group build —
     * the sequential path's only remaining allocation — disappears.
     */
    std::map<size_t, CommGroup> groups_;
    /** Per-call scratch (capacities ratchet during warmup). */
    std::vector<const Param *> excludedSorted_;
    std::vector<Tensor *> gradScratch_;
    std::vector<const Tensor *> inputScratch_;
};

/** Volumes from one embedding synchronization. */
struct EmbSyncVolume
{
    /** Logical all-reduce message size V (bytes of one table). */
    int64_t tableBytes = 0;
    /**
     * Cost-model traffic per rank for the executed variant,
     * 2V(R-1)/R summed over the constituent all-reduces (Eq 15/16).
     */
    double trafficBytes = 0.0;
};

/**
 * Synchronizes the tied embedding tables held by the first and last
 * pipeline stages across all D data-parallel workers.
 *
 * Baseline (Fig 7a): average the first-stage copies over D, average
 * the last-stage copies over D, then sum the two averages with a
 * second 2-rank all-reduce. Fused (Fig 7b): one all-reduce over all
 * 2D copies computing sum/D. The results are mathematically
 * identical; only the communication cost differs (Eq 15 vs 16).
 */
class EmbeddingSynchronizer
{
  public:
    /**
     * @param fused Use the fused single all-reduce (Fig 7b).
     * @param transport Transport the collectives go through
     *        (defaultTransport() when null).
     */
    explicit EmbeddingSynchronizer(bool fused,
                                   Transport *transport = nullptr)
        : fused_(fused),
          transport_(transport ? transport : &defaultTransport())
    {}

    /**
     * @param first_copies Token tables of stage 0, one per worker.
     * @param last_copies Token tables of the last stage, one per
     *        worker. When pipeline depth is 1 these are the same
     *        Param objects as @p first_copies (true tying); then
     *        only the D-way average is performed.
     */
    EmbSyncVolume synchronize(
        const std::vector<ParamPtr> &first_copies,
        const std::vector<ParamPtr> &last_copies);

    bool fused() const { return fused_; }

  private:
    bool fused_;
    Transport *transport_;
    /**
     * Cached collective layouts + gradient-pointer scratch, rebuilt
     * only if the tables' gradient storage moves (it never does in
     * the steady state, so synchronize() allocates nothing).
     */
    std::vector<Tensor *> firstGrads_, lastGrads_, fusedGrads_;
    CommGroup tiedGroup_;
    CommGroup fusedGroup_;
    std::vector<CommGroup> stageGroups_;
    std::vector<CommGroup> pairGroups_;
};

} // namespace optimus

#endif // OPTIMUS_PARALLEL_DATA_PARALLEL_HH
