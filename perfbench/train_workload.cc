/**
 * @file
 * The train-* workloads: Trainer3d steps through the public
 * parallel/ API, an untraced pass for the end-to-end metrics, a
 * traced pass (obs spans, metrics registry, health probes and a
 * CommTrace) for the per-layer metrics, and layer probes that time
 * calls into nn/, tensor/ and compress/ at the workload's exact
 * shapes. Nothing here instruments src/: every span and counter
 * read below already exists in the library.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "cluster/mapping.hh"
#include "comm/transport.hh"
#include "compress/powersgd.hh"
#include "core/presets.hh"
#include "core/quality_experiment.hh"
#include "data/corpus.hh"
#include "data/dataset.hh"
#include "nn/attention.hh"
#include "nn/gpt.hh"
#include "nn/layernorm.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "obs/metrics.hh"
#include "obs/probes.hh"
#include "obs/trace.hh"
#include "parallel/trainer3d.hh"
#include "pipesim/trace_replay.hh"
#include "runtime/runtime.hh"
#include "tensor/arena.hh"
#include "tensor/matmul.hh"

namespace perfbench
{
namespace
{

using namespace optimus;

/** Steps before the timed region: the first sizes the arenas, the
 *  second completes lazily built state (the zero-allocation
 *  contract's warmup). */
constexpr int kWarmupSteps = 2;

/** One training workload: model, grid, preset, quality horizon. */
struct TrainSpec
{
    TechniquePreset preset;
    GptConfig model;
    CorpusConfig corpus;
    int d = 2, p = 2, m = 4, mb = 4;
    float lr = 5e-3f;
    /** Steps (warmup included) after which val_ppl is taken. */
    int fixedSteps = 300;

    int64_t tokensPerStep() const
    {
        return static_cast<int64_t>(d) * m * mb * model.seqLen;
    }
};

TrainSpec
specFor(const Options &opts)
{
    TrainSpec spec;
    // The standard quality configuration (QualityRunConfig).
    const QualityRunConfig quality;
    spec.corpus = quality.corpus;
    if (opts.workload == "train-cc") {
        spec.preset = presets::cbFeSc();
        spec.model = quality.model;
        spec.d = quality.dataParallel;
        spec.p = quality.pipelineStages;
        spec.m = quality.microBatches;
        spec.mb = quality.microBatchSize;
        spec.lr = quality.learningRate;
        spec.fixedSteps = 300;
    } else {
        // bench_step_overlap's model on a wider DP grid.
        spec.preset = presets::baseline();
        spec.model = GptConfig{64, 64, 8, 4, 8, 0.02f, 77};
        spec.d = 4;
        spec.p = 2;
        spec.m = 2;
        spec.mb = 2;
        spec.lr = 1e-3f;
        spec.fixedSteps = 150;
    }
    if (opts.quick) {
        // Same grid and preset (so every compression path and gate
        // runs), tiny model and horizon.
        spec.model.hidden = 16;
        spec.model.heads = 2;
        spec.fixedSteps = 6;
    }
    // The corpus is fixed; the seed draws the batch order (TrainRun),
    // so val_ppl moves with the sampled inputs, not a new language.
    spec.corpus.vocab = spec.model.vocab;
    return spec;
}

Trainer3dConfig
trainerConfig(const TrainSpec &spec, bool trace_comm)
{
    Trainer3dConfig tc;
    tc.model = spec.model;
    tc.dataParallel = spec.d;
    tc.pipelineStages = spec.p;
    tc.microBatches = spec.m;
    tc.microBatchSize = spec.mb;
    tc.learningRate = spec.lr;
    tc.cb = spec.preset.cb;
    tc.dp = spec.preset.dp;
    tc.fusedEmbeddingSync = spec.preset.fusedEmbeddingSync;
    tc.traceCommunication = trace_comm;
    return tc;
}

/** A constructed, warmed-up training run. */
struct TrainRun
{
    SyntheticCorpus corpus;
    LmDataset train;
    LmDataset val;
    Trainer3d trainer;
    Rng rng;
    std::vector<double> warmupLoss;

    TrainRun(const TrainSpec &spec, uint64_t seed, bool trace_comm)
        : corpus(spec.corpus),
          train(corpus.train(), spec.model.seqLen),
          val(corpus.validation(), spec.model.seqLen),
          trainer(trainerConfig(spec, trace_comm)),
          rng(seed * 0x9e3779b97f4a7c15ULL + 11)
    {
        for (int i = 0; i < kWarmupSteps; ++i)
            warmupLoss.push_back(trainer.trainIteration(train, rng).loss);
    }
};

/** Per-step samples of one timed pass. */
struct PassResult
{
    Samples stepMs, fwdBwdMs, dpExposedMs, dpBusyMs, embMs, optMs,
        unattributedMs;
    /** Inter-stage + DP wire bytes per step (IterationStats). */
    Samples statsWireBytes;
    std::vector<IterationStats> stats;
    bool lossFinite = true;
    double valPpl = 0.0;
    float divergence = 0.0f;
    int64_t heapAllocs = 0;
    int64_t steps = 0;
    /** Timed wall (validation excluded), and the validation window. */
    double wallMs = 0.0;
    int64_t valBeginNs = 0, valEndNs = 0;
    /** Metrics-registry counter deltas over the timed steps. */
    int64_t parallelForCalls = 0, tasksSubmitted = 0;
    double setupSeconds = 0.0;
};

int64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::instance().counter(name).value();
}

/**
 * Warm up, then step until @p seconds have passed and at least
 * fixedSteps steps ran, taking val_ppl once at fixedSteps.
 */
PassResult
timedPass(const TrainSpec &spec, const Options &opts, bool traced,
          std::unique_ptr<TrainRun> &run)
{
    PassResult out;
    run = std::make_unique<TrainRun>(spec, opts.seed, traced);
    out.setupSeconds = static_cast<double>(nowNs() - opts.startNs) * 1e-9;
    for (double l : run->warmupLoss)
        out.lossFinite = out.lossFinite && std::isfinite(l);
    Trainer3d &trainer = run->trainer;

    if (traced) {
        obs::MetricsRegistry::instance().resetValues();
        obs::enableMetrics(true);
        obs::enableProbes(true);
        obs::startTracing();
    }
    const int64_t pf0 = counterValue("runtime.parallelFor.calls");
    const int64_t task0 = counterValue("runtime.tasks.submitted");
    int64_t pf_val = 0, task_val = 0;

    const int64_t budget_ns = static_cast<int64_t>(opts.seconds * 1e9);
    const int64_t loop_begin = nowNs();
    int64_t val_ns = 0;
    for (int64_t step = kWarmupSteps;; ++step) {
        if (step == spec.fixedSteps) {
            const int64_t pf = counterValue("runtime.parallelFor.calls");
            const int64_t task = counterValue("runtime.tasks.submitted");
            out.valBeginNs = nowNs();
            out.valPpl = trainer.validatePerplexity(run->val);
            out.valEndNs = nowNs();
            val_ns = out.valEndNs - out.valBeginNs;
            pf_val = counterValue("runtime.parallelFor.calls") - pf;
            task_val = counterValue("runtime.tasks.submitted") - task;
        }
        if (step >= spec.fixedSteps &&
            nowNs() - loop_begin - val_ns >= budget_ns)
            break;
        const int64_t allocs0 = mem::heapAllocs();
        const int64_t t0 = nowNs();
        IterationStats st = trainer.trainIteration(run->train, run->rng);
        const int64_t t1 = nowNs();
        out.heapAllocs += mem::heapAllocs() - allocs0;

        const double step_ms = msBetween(t0, t1);
        const StepPhaseTimes &ph = st.phases;
        out.stepMs.add(step_ms);
        out.fwdBwdMs.add(ph.forwardBackward * 1e3);
        out.dpExposedMs.add(ph.dpReduce * 1e3);
        out.dpBusyMs.add(ph.dpReduceBusy * 1e3);
        out.embMs.add(ph.embSync * 1e3);
        out.optMs.add(ph.optimizer * 1e3);
        out.unattributedMs.add(
            step_ms - 1e3 * (ph.forwardBackward + ph.dpReduce +
                             ph.embSync + ph.optimizer));
        out.statsWireBytes.add(static_cast<double>(
            st.interStageBytes + st.dpVolume.actualBytes));
        out.lossFinite = out.lossFinite && std::isfinite(st.loss);
        if (traced)
            out.stats.push_back(st);
        ++out.steps;
    }
    out.wallMs = msBetween(loop_begin, nowNs()) - val_ns * 1e-6;
    out.parallelForCalls =
        counterValue("runtime.parallelFor.calls") - pf0 - pf_val;
    out.tasksSubmitted =
        counterValue("runtime.tasks.submitted") - task0 - task_val;
    if (traced) {
        obs::stopTracing();
        obs::enableProbes(false);
        obs::enableMetrics(false);
    }
    out.divergence = trainer.replicaDivergence();
    return out;
}

/** Per-iteration, per-phase volumes and event counts of a trace. */
struct IterComm
{
    CommVolume vol[4];
    int64_t events[4] = {0, 0, 0, 0};
    /** The step's embedding-sync events, for CommTrace's own
     *  (canonical-order) traffic sum. */
    CommTrace emb;
};

std::map<int64_t, IterComm>
commByIteration(const CommTrace &trace)
{
    std::map<int64_t, IterComm> out;
    for (const CommEvent &e : trace.events()) {
        IterComm &ic = out[e.iteration];
        const int ph = static_cast<int>(e.phase);
        ic.vol[ph].add(e);
        ++ic.events[ph];
        if (e.phase == CommPhase::EmbSync)
            ic.emb.append(e);
    }
    return out;
}

/**
 * Gate the trace against the trainer's own per-step accounting for
 * each recorded step in @p stats (iteration = first_iter + index).
 */
void
gateTraceVolumes(Report &report, const CommTrace &trace,
                 const std::vector<IterationStats> &stats,
                 int64_t first_iter)
{
    const auto by_iter = commByIteration(trace);
    int64_t mismatches = 0;
    for (size_t i = 0; i < stats.size(); ++i) {
        const int64_t it = first_iter + static_cast<int64_t>(i);
        const auto found = by_iter.find(it);
        const IterComm none;
        const IterComm &ic = found == by_iter.end() ? none : found->second;
        const IterationStats &st = stats[i];
        const bool ok =
            ic.vol[int(CommPhase::InterStage)].wireBytes ==
                st.interStageBytes &&
            ic.vol[int(CommPhase::InterStage)].exactBytes ==
                st.interStageBytesExact &&
            ic.vol[int(CommPhase::DpReduce)].wireBytes ==
                st.dpVolume.actualBytes &&
            ic.vol[int(CommPhase::DpReduce)].exactBytes ==
                st.dpVolume.exactBytes &&
            ic.emb.trafficBytes(CommPhase::EmbSync) ==
                st.embVolume.trafficBytes;
        mismatches += ok ? 0 : 1;
    }
    report.gate(mismatches == 0,
                "CommTrace volumes == IterationStats volumes (" +
                    std::to_string(mismatches) + " steps differ)");
}

/**
 * A short CommTrace-recording run of the same configuration gives
 * the embedding-sync bytes IterationStats does not carry, and checks
 * the trace against the stats.
 */
double
embWireBytesPerStep(const TrainSpec &spec, const Options &opts,
                    Report &report)
{
    TrainRun check(spec, opts.seed, true);
    std::vector<IterationStats> stats;
    for (int i = 0; i < 2; ++i)
        stats.push_back(check.trainer.trainIteration(check.train, check.rng));
    const CommTrace &trace = *check.trainer.trace();
    gateTraceVolumes(report, trace, stats, kWarmupSteps);
    return static_cast<double>(
        trace.volume(CommPhase::EmbSync, kWarmupSteps + 1).wireBytes);
}

// ------------------------------------------------------------------
// Layer probes at the workload's exact shapes.

Tensor
randomTensor(const ShapeVec &shape, Rng &rng)
{
    Tensor t(shape);
    float *d = t.data();
    for (int64_t i = 0; i < t.size(); ++i)
        d[i] = static_cast<float>(rng.normal(0.0, 1.0));
    return t;
}

std::vector<int32_t>
randomTokens(int64_t n, int64_t vocab, Rng &rng)
{
    std::vector<int32_t> t(static_cast<size_t>(n));
    for (auto &tok : t)
        tok = static_cast<int32_t>(rng.uniformInt(vocab));
    return t;
}

/** Forward + backward of a Layer: median per-call us for each. */
struct FwdBwdUs
{
    double fwd = 0.0, bwd = 0.0;
};

FwdBwdUs
probeLayer(Layer &layer, const Tensor &x, const Tensor &dy, int reps)
{
    FwdBwdUs out;
    out.fwd = medianCallUs(reps, [&] {
        layer.forward(x);
        layer.clearStash();
    });
    // Backward needs the stash its forward leaves: time the pair and
    // charge backward the difference.
    const double pair = medianCallUs(reps, [&] {
        layer.forward(x);
        layer.backward(dy);
    });
    out.bwd = std::max(0.0, pair - out.fwd);
    return out;
}

struct ProbeResult
{
    double stageFwdUs = 0, stageBwdUs = 0, lossUs = 0;
    double blockFwdUs = 0, blockBwdUs = 0;
    double linearFwdUs = 0, linearBwdUs = 0;
    double attnFwdUs = 0, attnBwdUs = 0;
    double lnFwdUs = 0, lnBwdUs = 0;
    double adamUs = 0;
    double gemmGflops = 0;
    double ppCompressUs = 0, dpCompressUs = 0;
};

ProbeResult
runProbes(const TrainSpec &spec, const Trainer3d &trainer, bool quick)
{
    const int reps = quick ? 3 : 41;
    ProbeResult r;
    // Inside the trainer, stage compute runs in the replica
    // parallelFor, where nested regions execute inline: probe the
    // same way.
    SerialRegion serial;
    Workspace ws("perfbench.probe");
    WorkspaceScope scope(&ws);
    Rng rng(99);
    const GptConfig &mc = spec.model;
    const int64_t rows = static_cast<int64_t>(spec.mb) * mc.seqLen;
    const int64_t h = mc.hidden;

    // StageModule forward/backward per micro-batch, every stage.
    for (int p = 0; p < spec.p; ++p) {
        StageModule stage(mc, p, spec.p);
        const auto tokens = randomTokens(rows, mc.vocab, rng);
        const Tensor x = randomTensor({rows, h}, rng);
        const int64_t out_cols = stage.isLast() ? mc.vocab : h;
        const Tensor dy = randomTensor({rows, out_cols}, rng);
        auto fwd = [&] {
            return p == 0 ? stage.forwardTokens(tokens, spec.mb)
                          : stage.forwardHidden(x);
        };
        const double f = medianCallUs(reps, [&] {
            fwd();
            stage.clearStash();
        });
        const double fb = medianCallUs(reps, [&] {
            fwd();
            Tensor g = stage.backwardHidden(dy);
            if (p == 0)
                stage.backwardTokens(g);
        });
        r.stageFwdUs += f;
        r.stageBwdUs += std::max(0.0, fb - f);

        AdamOptimizer adam(stage.params(), spec.lr);
        r.adamUs += medianCallUs(reps, [&] { adam.step(); });
    }

    // Loss forward + backward on the last stage's logits.
    {
        SoftmaxCrossEntropy loss;
        const Tensor logits = randomTensor({rows, mc.vocab}, rng);
        const auto targets = randomTokens(rows, mc.vocab, rng);
        r.lossUs = medianCallUs(reps, [&] {
            loss.forward(logits, targets);
            loss.backward();
        });
    }

    const Tensor x = randomTensor({rows, h}, rng);
    const Tensor dy = randomTensor({rows, h}, rng);
    {
        auto block = buildGptBlock(mc, 0);
        const FwdBwdUs fb = probeLayer(*block, x, dy, reps);
        r.blockFwdUs = fb.fwd;
        r.blockBwdUs = fb.bwd;
    }
    {
        MultiHeadAttention attn("probe.attn", h, mc.heads, mc.seqLen,
                                rng);
        const FwdBwdUs fb = probeLayer(attn, x, dy, reps);
        r.attnFwdUs = fb.fwd;
        r.attnBwdUs = fb.bwd;
    }
    {
        LayerNorm ln("probe.ln", h);
        const FwdBwdUs fb = probeLayer(ln, x, dy, reps);
        r.lnFwdUs = fb.fwd;
        r.lnBwdUs = fb.bwd;
    }
    // The four Linear shapes of one block: qkv, proj, fc1, fc2.
    const int64_t shapes[4][2] = {{h, 3 * h}, {h, h}, {h, 4 * h},
                                  {4 * h, h}};
    double gemm_flop = 0.0, gemm_us = 0.0;
    for (const auto &s : shapes) {
        Linear lin("probe.linear", s[0], s[1], rng);
        const Tensor lx = randomTensor({rows, s[0]}, rng);
        const Tensor ldy = randomTensor({rows, s[1]}, rng);
        const FwdBwdUs fb = probeLayer(lin, lx, ldy, reps);
        r.linearFwdUs += fb.fwd;
        r.linearBwdUs += fb.bwd;

        Tensor c({rows, s[1]});
        const Tensor w = randomTensor({s[0], s[1]}, rng);
        gemm_us += medianCallUs(reps, [&] {
            gemm(c.data(), lx.data(), w.data(), rows, s[0], s[1], false);
        });
        gemm_flop += 2.0 * rows * s[0] * s[1];
    }
    r.gemmGflops = gemm_us > 0 ? gemm_flop / (gemm_us * 1e3) : 0.0;

    // Compression kernels at the shapes the workload compresses.
    if (spec.preset.cb.enabled) {
        PowerSgdCompressor psgd(spec.preset.cb.spec.rank);
        const Tensor g = randomTensor({rows, h}, rng);
        Tensor out({rows, h});
        r.ppCompressUs =
            medianCallUs(reps, [&] { psgd.compress(g, out); });
    }
    if (spec.preset.dp.enabled) {
        for (int p = 0; p < spec.p; ++p) {
            if (!stageSelectedForCompression(spec.preset.dp, p, spec.p))
                continue;
            const StageModule &stage = trainer.stage(0, p);
            const ParamPtr table = stage.embeddingTable();
            for (const ParamPtr &param : stage.params()) {
                if (param == table ||
                    !DataParallelReducer::compressible(*param))
                    continue;
                const auto shape = param->value.shape();
                DistributedPowerSgd dps(spec.d, spec.preset.dp.spec.rank);
                std::vector<Tensor> inputs;
                for (int d = 0; d < spec.d; ++d)
                    inputs.push_back(randomTensor(shape, rng));
                std::vector<const Tensor *> ptrs;
                for (const auto &t : inputs)
                    ptrs.push_back(&t);
                Tensor mean(shape);
                r.dpCompressUs +=
                    medianCallUs(reps, [&] { dps.reduce(ptrs, mean); });
            }
        }
    }
    return r;
}

/** Dense-equivalent GFLOP of one step (forward x3 for backward). */
double
stepGflop(const TrainSpec &spec)
{
    const GptConfig &c = spec.model;
    const double h = static_cast<double>(c.hidden);
    const double per_token_fwd =
        2.0 * (12.0 * h * h * c.layers + h * c.vocab) +
        4.0 * c.seqLen * h * c.layers;
    return 3.0 * per_token_fwd * spec.tokensPerStep() * 1e-9;
}

/** Sum of span durations (ms) matching a predicate, outside the
 *  validation window. */
template <typename Pred>
double
spanMs(const std::vector<obs::TraceEvent> &events, const PassResult &pass,
       Pred &&pred)
{
    double ms = 0.0;
    for (const auto &e : events) {
        if (e.phase != 'X' || !pred(e))
            continue;
        if (e.beginNs >= pass.valBeginNs && e.beginNs < pass.valEndNs)
            continue;
        ms += msBetween(e.beginNs, e.endNs);
    }
    return ms;
}

bool
isCommCategory(const char *cat)
{
    for (int p = 0; p < 4; ++p)
        if (std::strcmp(cat, commPhaseName(static_cast<CommPhase>(p))) == 0)
            return true;
    return false;
}

void
addEndToEnd(Report &report, const TrainSpec &spec, const Options &opts,
            const PassResult &pass, double wire_bytes)
{
    const int64_t n = pass.steps;
    const double tokens = static_cast<double>(spec.tokensPerStep());
    report.add("tokens_per_s", tokens / (pass.stepMs.median() * 1e-3),
               "1/s", n);
    report.add("wire_bytes_per_step", wire_bytes, "B", n);
    report.add("val_ppl", pass.valPpl, "ppl", 1);
    // A training step is this workload's request: its loss is the
    // first output (end of forward/backward), its completion the
    // return of trainIteration.
    report.add("ttft_ms.p50", pass.fwdBwdMs.percentile(50), "ms", n);
    report.add("ttft_ms.p99", pass.fwdBwdMs.percentile(99), "ms", n);
    Samples per_token;
    for (double ms : pass.stepMs.values())
        per_token.add(ms / tokens);
    report.add("tpot_ms.p50", per_token.median(), "ms", n);
    report.add("latency_ms.p50", pass.stepMs.percentile(50), "ms", n);
    report.add("latency_ms.p99", pass.stepMs.percentile(99), "ms", n);
    int64_t ok = 0;
    for (int64_t i = 0; i < n; ++i) {
        ok += pass.fwdBwdMs.values()[i] <= opts.sloTtftMs &&
              pass.stepMs.values()[i] <= opts.sloLatencyMs;
    }
    report.add("slo_ok_ratio",
               n ? static_cast<double>(ok) / static_cast<double>(n) : 0.0,
               "ratio", n);
    report.add("setup_s", pass.setupSeconds, "s", 1);
}

void
gatePass(Report &report, const PassResult &pass, const char *label)
{
    const std::string tag = std::string(" [") + label + "]";
    report.gate(pass.divergence == 0.0f,
                "replicaDivergence() == 0" + tag);
    report.gate(pass.lossFinite, "finite training loss" + tag);
    report.gate(std::isfinite(pass.valPpl) && pass.valPpl > 0.0,
                "finite val_ppl" + tag);
    report.gate(pass.heapAllocs == 0,
                "zero steady-state heap allocations (" +
                    std::to_string(pass.heapAllocs) + ")" + tag);
}

} // namespace

bool
isTrainWorkload(const std::string &name)
{
    return name == "train-cc" || name == "train-wide";
}

double
trainSetupSeconds(const Options &opts)
{
    const TrainSpec spec = specFor(opts);
    TrainRun run(spec, opts.seed, false);
    return static_cast<double>(nowNs() - opts.startNs) * 1e-9;
}

Report
runTrainWorkload(const Options &opts)
{
    const TrainSpec spec = specFor(opts);
    Report report;

    std::unique_ptr<TrainRun> run;
    const PassResult plain = timedPass(spec, opts, false, run);
    run.reset();
    report.attempted += plain.steps;
    gatePass(report, plain, "untraced");
    report.meta("steps", static_cast<double>(plain.steps));
    report.meta("preset", spec.preset.name);

    const double emb = embWireBytesPerStep(spec, opts, report);
    addEndToEnd(report, spec, opts, plain, plain.statsWireBytes.mean() + emb);
    if (!opts.trace)
        return report;

    // Traced pass: same seed, same steps' worth of time.
    const PassResult traced = timedPass(spec, opts, true, run);
    report.attempted += traced.steps;
    gatePass(report, traced, "traced");
    report.gate(traced.valPpl == plain.valPpl,
                "val_ppl traced == untraced");
    Trainer3d &trainer = run->trainer;
    const CommTrace &trace = *trainer.trace();
    gateTraceVolumes(report, trace, traced.stats, kWarmupSteps);

    const std::vector<obs::TraceEvent> events = obs::traceEvents();
    const double n = static_cast<double>(traced.steps);
    const int64_t ns = traced.steps;
    const int threads = runtimeThreads();

    // parallel: StepPhaseTimes returned by trainIteration.
    report.add("parallel.fwd_bwd_ms", traced.fwdBwdMs.median(), "ms", ns);
    report.add("parallel.dp_reduce_exposed_ms", traced.dpExposedMs.median(),
               "ms", ns);
    report.add("parallel.dp_reduce_busy_ms", traced.dpBusyMs.median(), "ms",
               ns);
    report.add("parallel.emb_sync_ms", traced.embMs.median(), "ms", ns);
    report.add("parallel.optimizer_ms", traced.optMs.median(), "ms", ns);
    report.add("parallel.unattributed_ms", traced.unattributedMs.median(),
               "ms", ns);
    report.add("parallel.step_ms.p95", traced.stepMs.percentile(95), "ms",
               ns);
    report.add("parallel.replica_divergence", traced.divergence, "abs", 1);

    // nn: per-replica compute spans, then the probes.
    auto named = [](const char *cat, const char *name) {
        return [cat, name](const obs::TraceEvent &e) {
            return std::strcmp(e.category, cat) == 0 &&
                   std::strcmp(e.name, name) == 0;
        };
    };
    const double per_replica = n * spec.d;
    const double nn_fwd =
        spanMs(events, traced, named("compute", "forward")) / per_replica;
    const double nn_bwd =
        spanMs(events, traced, named("compute", "backward")) / per_replica;
    report.add("nn.forward_ms", nn_fwd, "ms", ns);
    report.add("nn.backward_ms", nn_bwd, "ms", ns);

    const ProbeResult pr = runProbes(spec, trainer, opts.quick);
    report.add("nn.stage_fwd_us", pr.stageFwdUs, "us", 1);
    report.add("nn.stage_bwd_us", pr.stageBwdUs, "us", 1);
    report.add("nn.block_fwd_us", pr.blockFwdUs, "us", 1);
    report.add("nn.block_bwd_us", pr.blockBwdUs, "us", 1);
    report.add("nn.linear_fwd_us", pr.linearFwdUs, "us", 1);
    report.add("nn.linear_bwd_us", pr.linearBwdUs, "us", 1);
    report.add("nn.attention_fwd_us", pr.attnFwdUs, "us", 1);
    report.add("nn.attention_bwd_us", pr.attnBwdUs, "us", 1);
    report.add("nn.layernorm_fwd_us", pr.lnFwdUs, "us", 1);
    report.add("nn.layernorm_bwd_us", pr.lnBwdUs, "us", 1);
    report.add("nn.loss_us", pr.lossUs, "us", 1);
    report.add("nn.adam_step_us", pr.adamUs, "us", 1);
    // Reconciliation: calls per step x median per-call time, set
    // against the phase each call sits in. Replicas run side by side
    // on the pool, so the critical path holds ceil(D / threads) of
    // them.
    const double waves = std::ceil(static_cast<double>(spec.d) /
                                   std::max(1, threads));
    const double probe_fb_ms =
        waves * spec.m *
        (pr.stageFwdUs + pr.stageBwdUs + pr.lossUs) * 1e-3;
    report.add("nn.probe_fwd_bwd_ms", probe_fb_ms, "ms", 1);
    report.add("nn.fwd_bwd_unattributed_ms",
               traced.fwdBwdMs.median() - probe_fb_ms, "ms", ns);
    report.add("nn.optimizer_unattributed_ms",
               traced.optMs.median() - waves * pr.adamUs * 1e-3, "ms", ns);

    // tensor.
    const double gflop = stepGflop(spec);
    report.add("tensor.gemm_gflops", pr.gemmGflops, "GFLOP/s", 1);
    report.add("tensor.step_gflop", gflop, "GFLOP", 1);
    report.add("tensor.achieved_gflops",
               gflop / (traced.fwdBwdMs.median() * 1e-3), "GFLOP/s", ns);
    report.add("tensor.heap_allocs_per_step",
               static_cast<double>(traced.heapAllocs) / n, "count", ns);
    report.add("tensor.arena_peak_mb",
               static_cast<double>(mem::peakBytes()) / (1024.0 * 1024.0),
               "MB", 1);

    // compress.
    const obs::CompressionHealth pp = trainer.ppHealth();
    const obs::CompressionHealth dp = trainer.dpHealth();
    const double iters = static_cast<double>(trainer.iterations());
    report.add("compress.pp_compress_us", pr.ppCompressUs, "us", 1);
    report.add("compress.dp_compress_us", pr.dpCompressUs, "us", 1);
    report.add("compress.pp_sends_compressed_per_step",
               static_cast<double>(pp.compressedSends) / iters, "count",
               trainer.iterations());
    report.add("compress.pp_wire_ratio", pp.wireRatio(), "ratio", 1);
    report.add("compress.dp_wire_ratio", dp.wireRatio(), "ratio", 1);
    report.add("compress.pp_rel_err", pp.relError(), "ratio", 1);
    report.add("compress.dp_rel_err", dp.relError(), "ratio", 1);
    report.add("compress.state_bytes",
               static_cast<double>(trainer.compressorStateBytes()), "B", 1);
    report.add("compress.lep_buffer_bytes",
               static_cast<double>(trainer.lepBufferBytes()), "B", 1);

    // comm: one steady step of the CommTrace, and its alpha-beta
    // time on the paper-scale cluster's links (as bench_commtrace).
    const int64_t steady = trainer.iterations() - 1;
    const auto by_iter = commByIteration(trace);
    const IterComm &ic = by_iter.at(steady);
    const struct
    {
        const char *key;
        CommPhase phase;
    } phases[] = {{"inter_stage", CommPhase::InterStage},
                  {"dp", CommPhase::DpReduce},
                  {"emb", CommPhase::EmbSync}};
    for (const auto &ph : phases) {
        const int i = static_cast<int>(ph.phase);
        report.add(std::string("comm.events_per_step.") + ph.key,
                   static_cast<double>(ic.events[i]), "count", 1);
        report.add(std::string("comm.wire_bytes_per_step.") + ph.key,
                   static_cast<double>(ic.vol[i].wireBytes), "B", 1);
    }
    const MappedWorkload cluster(HardwareConfig{}, GptModelSpec{},
                                 ParallelConfig{}, TrainingPlan{});
    const TraceReplayer replayer(cluster);
    report.add("comm.modeled_ms_per_step",
               replayer.replay(trace, steady).totalSeconds() * 1e3, "ms", 1);
    report.add("comm.verb_busy_ms_per_step",
               spanMs(events, traced,
                      [](const obs::TraceEvent &e) {
                          return isCommCategory(e.category);
                      }) / n,
               "ms", ns);

    // runtime.
    report.add("runtime.tasks_per_step",
               static_cast<double>(traced.tasksSubmitted) / n, "count", ns);
    report.add("runtime.parallel_for_per_step",
               static_cast<double>(traced.parallelForCalls) / n, "count",
               ns);
    const double busy = spanMs(events, traced, [](const obs::TraceEvent &e) {
        return e.track >= 1 && e.track < 1000 &&
               std::strcmp(e.category, "runtime") == 0 &&
               (std::strcmp(e.name, "chunks") == 0 ||
                std::strcmp(e.name, "task") == 0);
    });
    report.add("runtime.worker_busy_share",
               threads > 1 ? busy / ((threads - 1) * traced.wallMs) : 0.0,
               "ratio", ns);

    report.add("obs.untraced_step_ms", plain.stepMs.median(), "ms",
               plain.steps);
    report.add("obs.trace_overhead_ratio",
               traced.stepMs.median() / plain.stepMs.median(), "ratio", ns);
    obs::clearTrace();
    return report;
}

} // namespace perfbench
