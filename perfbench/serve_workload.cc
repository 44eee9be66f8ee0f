/**
 * @file
 * The serve-open workload: seeded open-loop Poisson arrivals into a
 * ServeEngine through its public API. The load generator shares the
 * engine's thread (the engine is single-caller), so a request due
 * during a step is submitted when the step returns; every latency
 * is taken from the request's scheduled arrival, which charges that
 * wait to the request, and the generator's lateness is reported.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "comm/transport.hh"
#include "data/corpus.hh"
#include "data/dataset.hh"
#include "nn/loss.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "parallel/stage_module.hh"
#include "runtime/runtime.hh"
#include "serve/engine.hh"
#include "tensor/arena.hh"

namespace perfbench
{
namespace
{

using namespace optimus;

/** Tolerance of the latency cross-check for clock-read order. */
constexpr double kClockSlackMs = 0.05;

struct ServeSpec
{
    /** The standard quality model's width and depth (hidden 32,
     *  4 layers) at seqLen 64, so a prompt of up to 48 tokens plus
     *  16 new ones fits. */
    GptConfig model{64, 32, 4, 4, 64, 0.02f, 77};
    int stages = 2;
    int64_t slots = 8;
    int64_t maxBatchTokens = 64;
    int64_t promptMin = 4, promptMax = 48;
    int64_t newMin = 8, newMax = 16;
    /** Requests re-decoded by the full-recompute oracle. */
    int oracleSample = 32;
    /** Requests of the untimed warmup wave. */
    int warmupRequests = 16;
};

ServeSpec
specFor(const Options &opts)
{
    ServeSpec spec;
    if (opts.quick) {
        spec.model.hidden = 16;
        spec.model.heads = 2;
        spec.model.layers = 4;
        spec.oracleSample = 8;
        spec.warmupRequests = 4;
    }
    return spec;
}

struct Request
{
    int64_t dueNs = 0; // scheduled arrival, relative to loop start
    std::vector<int32_t> prompt;
    int64_t maxNew = 0;
};

std::vector<Request>
makeRequests(const ServeSpec &spec, uint64_t seed, int64_t count,
             double rate)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 5);
    std::vector<Request> out(static_cast<size_t>(count));
    double t = 0.0;
    for (auto &req : out) {
        // Exponential inter-arrival gap: a Poisson process at `rate`.
        t += -std::log(1.0 - rng.uniform()) / rate;
        req.dueNs = static_cast<int64_t>(t * 1e9);
        const int64_t len =
            spec.promptMin +
            static_cast<int64_t>(rng.uniformInt(
                static_cast<uint64_t>(spec.promptMax - spec.promptMin + 1)));
        req.prompt.resize(static_cast<size_t>(len));
        for (auto &tok : req.prompt)
            tok = static_cast<int32_t>(rng.uniformInt(spec.model.vocab));
        req.maxNew = spec.newMin +
                     static_cast<int64_t>(rng.uniformInt(
                         static_cast<uint64_t>(spec.newMax - spec.newMin + 1)));
    }
    return out;
}

/**
 * Benchmark-owned accounting transport handed to the engine as
 * ServeConfig::transport: counts every verb's events and wire bytes
 * and, when timing is on, its busy time.
 */
class CountingTransport : public Transport
{
  public:
    explicit CountingTransport(Transport &inner) : inner_(inner) {}

    bool timing = false;
    int64_t events = 0;
    CommVolume volume;
    int64_t busyNs = 0;

    void setIteration(int64_t iteration) override
    {
        inner_.setIteration(iteration);
    }
    CommEvent p2pSend(CommPhase phase, int src, int dst, int replica,
                      int64_t exact_bytes, int64_t wire_bytes,
                      const CompressorSpec &compressor) override
    {
        return count([&] {
            return inner_.p2pSend(phase, src, dst, replica, exact_bytes,
                                  wire_bytes, compressor);
        });
    }
    CommEvent allReduce(CommPhase phase, const CommGroup &group,
                        ReduceOp op) override
    {
        return count([&] { return inner_.allReduce(phase, group, op); });
    }
    CommEvent allReduceGrouped(CommPhase phase,
                               const std::vector<CommGroup> &groups,
                               ReduceOp op) override
    {
        return count(
            [&] { return inner_.allReduceGrouped(phase, groups, op); });
    }
    CommEvent allReduceCompressed(CommPhase phase, DistributedPowerSgd &dps,
                                  const std::vector<const Tensor *> &inputs,
                                  Tensor &mean_output) override
    {
        return count([&] {
            return inner_.allReduceCompressed(phase, dps, inputs,
                                              mean_output);
        });
    }
    CommEvent broadcast(CommPhase phase, CommGroup &group) override
    {
        return count([&] { return inner_.broadcast(phase, group); });
    }

  private:
    template <typename Fn>
    CommEvent count(Fn &&fn)
    {
        const int64_t t0 = timing ? nowNs() : 0;
        const CommEvent e = fn();
        if (timing)
            busyNs += nowNs() - t0;
        ++events;
        volume.add(e);
        return e;
    }

    Transport &inner_;
};

serve::ServeConfig
engineConfig(const ServeSpec &spec, Transport *transport)
{
    serve::ServeConfig config;
    config.model = spec.model;
    config.pipelineStages = spec.stages;
    config.maxSequences = spec.slots;
    config.maxBatchTokens = spec.maxBatchTokens;
    config.transport = transport;
    return config;
}

/** A constructed engine that served one untimed warmup wave. */
struct ServeRun
{
    CountingTransport transport;
    serve::ServeEngine engine;

    ServeRun(const ServeSpec &spec, uint64_t seed)
        : transport(defaultTransport()),
          engine(engineConfig(spec, &transport))
    {
        const auto warm = makeRequests(spec, seed + 1000,
                                       spec.warmupRequests, 1.0);
        for (const auto &req : warm)
            engine.submit(req.prompt, req.maxNew);
        engine.drain();
    }
};

/** What one request experienced (times relative to loop start). */
struct Outcome
{
    int64_t admitStepBeginNs = -1;
    int64_t firstTokenNs = -1;
    int64_t doneNs = -1;
    int64_t engineLatencyNs = -1;
    std::vector<int32_t> tokens;
};

struct PassResult
{
    std::vector<Outcome> outcomes;
    Samples stepMs, batch;
    int64_t steps = 0;
    int64_t pendingMax = 0;
    double lateMsMax = 0.0;
    double wallMs = 0.0;
    int64_t tokens = 0;
    int64_t transportEvents = 0, wireBytes = 0, busyNs = 0;
    int64_t heapAllocs = 0;
    int64_t parallelForCalls = 0, tasksSubmitted = 0;
    double setupSeconds = 0.0;
};

int64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::instance().counter(name).value();
}

/**
 * Spin until @p target_ns. Sleeping would hand the wake-up to the
 * OS scheduler, whose delay on a busy host lands in the next
 * request's latency as generator lateness.
 */
void
waitUntil(int64_t target_ns)
{
    while (nowNs() < target_ns) {
    }
}

PassResult
openLoopPass(const ServeSpec &spec, const Options &opts,
             const std::vector<Request> &requests, bool traced)
{
    PassResult out;
    ServeRun run(spec, opts.seed);
    out.setupSeconds = static_cast<double>(nowNs() - opts.startNs) * 1e-9;
    serve::ServeEngine &engine = run.engine;
    run.transport.events = 0;
    run.transport.volume = CommVolume{};
    run.transport.timing = traced;

    const size_t n = requests.size();
    out.outcomes.resize(n);
    int64_t id_base = -1;
    size_t next = 0;      // next request to submit
    size_t admitted = 0;  // requests admitted so far (FIFO)
    int64_t base = 0;

    engine.setFinishCallback([&](const serve::FinishedRequest &done) {
        Outcome &o = out.outcomes[static_cast<size_t>(done.id - id_base)];
        o.doneNs = nowNs() - base;
        o.engineLatencyNs = done.latencyNs;
        o.tokens.assign(done.tokens.begin() + done.promptLen,
                        done.tokens.end());
    });

    if (traced) {
        obs::MetricsRegistry::instance().resetValues();
        obs::enableMetrics(true);
        obs::startTracing();
    }
    const int64_t pf0 = counterValue("runtime.parallelFor.calls");
    const int64_t task0 = counterValue("runtime.tasks.submitted");
    const int64_t tokens0 = engine.tokensGenerated();
    out.stepMs.reserve(n * 8);

    base = nowNs();
    while (next < n || !engine.idle()) {
        const int64_t now = nowNs() - base;
        while (next < n && requests[next].dueNs <= now) {
            const int64_t id =
                engine.submit(requests[next].prompt, requests[next].maxNew);
            if (id_base < 0)
                id_base = id;
            const int64_t sub = nowNs() - base;
            out.lateMsMax = std::max(
                out.lateMsMax, (sub - requests[next].dueNs) * 1e-6);
            ++next;
        }
        if (engine.idle()) {
            waitUntil(base + requests[next].dueNs);
            continue;
        }
        const int64_t pending_before = engine.pendingRequests();
        out.pendingMax = std::max(out.pendingMax, pending_before);
        const int64_t allocs0 = mem::heapAllocs();
        const int64_t t0 = nowNs();
        const int64_t produced = engine.step();
        const int64_t t1 = nowNs();
        out.heapAllocs += mem::heapAllocs() - allocs0;
        out.stepMs.add(msBetween(t0, t1));
        out.batch.add(static_cast<double>(produced));
        ++out.steps;
        // Admission is FIFO from the pending ring: the requests the
        // step took are the oldest unadmitted ones, and each got its
        // first token from the step's prefill.
        const int64_t took = pending_before - engine.pendingRequests();
        for (int64_t k = 0; k < took; ++k, ++admitted) {
            out.outcomes[admitted].admitStepBeginNs = t0 - base;
            out.outcomes[admitted].firstTokenNs = t1 - base;
        }
    }
    out.wallMs = msBetween(base, nowNs());
    out.tokens = engine.tokensGenerated() - tokens0;
    out.parallelForCalls = counterValue("runtime.parallelFor.calls") - pf0;
    out.tasksSubmitted = counterValue("runtime.tasks.submitted") - task0;
    if (traced) {
        obs::stopTracing();
        obs::enableMetrics(false);
    }
    out.transportEvents = run.transport.events;
    out.wireBytes = run.transport.volume.wireBytes;
    out.busyNs = run.transport.busyNs;
    engine.setFinishCallback(nullptr);
    return out;
}

/** Per-request latency samples of a pass. */
struct Latencies
{
    Samples ttft, tpot, latency, queueWait;
    int64_t sloOk = 0;
};

Latencies
latencies(const PassResult &pass, const std::vector<Request> &requests,
          const Options &opts)
{
    Latencies l;
    for (size_t i = 0; i < requests.size(); ++i) {
        const Outcome &o = pass.outcomes[i];
        if (o.doneNs < 0 || o.firstTokenNs < 0)
            continue; // counted as failed, misses the SLO
        const double due = static_cast<double>(requests[i].dueNs);
        const double ttft = (o.firstTokenNs - due) * 1e-6;
        const double lat = (o.doneNs - due) * 1e-6;
        l.ttft.add(ttft);
        l.latency.add(lat);
        l.queueWait.add((o.admitStepBeginNs - due) * 1e-6);
        if (o.tokens.size() > 1) {
            l.tpot.add((o.doneNs - o.firstTokenNs) * 1e-6 /
                       static_cast<double>(o.tokens.size() - 1));
        }
        l.sloOk += ttft <= opts.sloTtftMs && lat <= opts.sloLatencyMs;
    }
    return l;
}

/** Gates every pass must meet. */
void
gatePass(Report &report, const PassResult &pass,
         const std::vector<Request> &requests, const char *label)
{
    const std::string tag = std::string(" [") + label + "]";
    int64_t failed = 0, bad_latency = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
        const Outcome &o = pass.outcomes[i];
        const bool ok = o.doneNs >= 0 && o.firstTokenNs >= 0 &&
                        static_cast<int64_t>(o.tokens.size()) ==
                            requests[i].maxNew;
        failed += ok ? 0 : 1;
        if (o.doneNs < 0)
            continue;
        // Benchmark latency (from the due time) minus the engine's
        // (from submit) is the generator's lateness for this request,
        // plus the instructions between the engine's clock reads and
        // ours (kClockSlackMs).
        const double diff_ms =
            (o.doneNs - requests[i].dueNs - o.engineLatencyNs) * 1e-6;
        bad_latency +=
            diff_ms < 0.0 || diff_ms > pass.lateMsMax + kClockSlackMs;
    }
    report.gate(failed == 0,
                std::to_string(failed) +
                    " requests incomplete or short of their token budget" +
                    tag,
                failed);
    report.gate(bad_latency == 0,
                "0 <= latency - FinishedRequest::latencyNs <= "
                "loadgen.late_ms.max (" +
                    std::to_string(bad_latency) + " violations)" + tag);
}

/** Served weights' validation perplexity through the Infer path. */
double
servedPerplexity(const ServeSpec &spec)
{
    CorpusConfig cc;
    cc.vocab = spec.model.vocab;
    cc.totalTokens = 20000;
    const SyntheticCorpus corpus(cc);
    const LmDataset val(corpus.validation(), spec.model.seqLen);
    const auto batches = val.evalBatches(1);
    StageModule stage(spec.model, 0, 1);
    stage.setMode(Mode::Infer);
    std::vector<KvCache> caches(static_cast<size_t>(spec.model.layers));
    double nll = 0.0;
    int64_t count = 0;
    for (const LmBatch &b : batches) {
        for (auto &c : caches)
            c.ensure(spec.model.seqLen, spec.model.hidden);
        Tensor h = stage.inferEmbed(b.tokens.data(),
                                    static_cast<int64_t>(b.tokens.size()), 0);
        h = stage.inferBlocks(h, caches.data());
        nll += SoftmaxCrossEntropy::evaluate(stage.inferLogits(h),
                                             b.targets);
        ++count;
    }
    return SoftmaxCrossEntropy::perplexity(count ? nll / count : 0.0);
}

struct ServeProbes
{
    double decodeUs = 0.0, prefillUs = 0.0;
};

/** One-row decode (inferBlocks per stage) and a mean-length prompt
 *  prefill through every stage, on the served shapes. */
ServeProbes
runProbes(const ServeSpec &spec, bool quick)
{
    const int reps = quick ? 3 : 101;
    SerialRegion serial;
    Workspace ws("perfbench.probe");
    WorkspaceScope scope(&ws);
    const GptConfig &mc = spec.model;
    const int64_t ctx = (spec.promptMin + spec.promptMax) / 2;
    std::vector<std::unique_ptr<StageModule>> stages;
    for (int p = 0; p < spec.stages; ++p) {
        stages.push_back(std::make_unique<StageModule>(mc, p, spec.stages));
        stages.back()->setMode(Mode::Infer);
    }
    std::vector<std::vector<KvCache>> caches(spec.stages);
    for (int p = 0; p < spec.stages; ++p)
        caches[p].resize(static_cast<size_t>(stages[p]->numBlocks()));
    std::vector<int32_t> prompt(static_cast<size_t>(ctx));
    for (size_t i = 0; i < prompt.size(); ++i)
        prompt[i] = static_cast<int32_t>((7 * i + 3) % mc.vocab);

    auto prefill = [&] {
        Tensor h = stages[0]->inferEmbed(prompt.data(), ctx, 0);
        for (int p = 0; p < spec.stages; ++p) {
            for (auto &c : caches[p])
                c.ensure(mc.seqLen, mc.hidden);
            h = stages[p]->inferBlocks(h, caches[p].data());
        }
        Tensor last({1, mc.hidden});
        std::memcpy(last.data(), h.data() + (ctx - 1) * mc.hidden,
                    sizeof(float) * mc.hidden);
        return stages.back()->inferLogits(last);
    };
    ServeProbes out;
    out.prefillUs = medianCallUs(reps, prefill);

    Tensor row({1, mc.hidden});
    for (int64_t c = 0; c < mc.hidden; ++c)
        row.data()[c] = 0.01f * static_cast<float>(c % 7);
    for (int p = 0; p < spec.stages; ++p) {
        out.decodeUs += medianCallUs(reps, [&] {
            for (auto &c : caches[p])
                c.len = ctx; // rewind to the prefilled context
            stages[p]->inferBlocks(row, caches[p].data());
        });
    }
    return out;
}

double
spanMsPerStep(const std::vector<obs::TraceEvent> &events, const char *name,
              int64_t steps)
{
    double ms = 0.0;
    for (const auto &e : events) {
        if (e.phase == 'X' && std::strcmp(e.category, "serve") == 0 &&
            std::strcmp(e.name, name) == 0)
            ms += msBetween(e.beginNs, e.endNs);
    }
    return steps ? ms / static_cast<double>(steps) : 0.0;
}

} // namespace

bool
isServeWorkload(const std::string &name)
{
    return name == "serve-open";
}

double
serveSetupSeconds(const Options &opts)
{
    ServeRun run(specFor(opts), opts.seed);
    return static_cast<double>(nowNs() - opts.startNs) * 1e-9;
}

Report
runServeWorkload(const Options &opts)
{
    const ServeSpec spec = specFor(opts);
    const int64_t count = std::max<int64_t>(
        1, std::llround(opts.serveRate * opts.seconds));
    const auto requests = makeRequests(spec, opts.seed, count, opts.serveRate);
    Report report;
    report.attempted = count;
    report.meta("requests", static_cast<double>(count));
    report.meta("offered_rate_per_s", opts.serveRate);
    report.meta("slo_ttft_ms", opts.sloTtftMs);
    report.meta("slo_latency_ms", opts.sloLatencyMs);

    const PassResult plain = openLoopPass(spec, opts, requests, false);
    gatePass(report, plain, requests, "untraced");
    report.meta("steps", static_cast<double>(plain.steps));

    // Oracle check on a seeded sample, outside the timed region.
    {
        Rng pick(opts.seed + 77);
        int64_t mismatches = 0;
        for (int s = 0; s < spec.oracleSample; ++s) {
            const size_t i = static_cast<size_t>(
                pick.uniformInt(static_cast<uint64_t>(count)));
            const auto ref = serve::referenceGreedyDecode(
                spec.model, requests[i].prompt, requests[i].maxNew);
            mismatches += ref != plain.outcomes[i].tokens;
        }
        report.gate(mismatches == 0,
                    "outputs == referenceGreedyDecode (" +
                        std::to_string(mismatches) + " of " +
                        std::to_string(spec.oracleSample) + " differ)",
                    mismatches);
    }

    const Latencies lat = latencies(plain, requests, opts);
    const int64_t served = lat.latency.count();
    report.add("tokens_per_s",
               static_cast<double>(plain.tokens) / (plain.wallMs * 1e-3),
               "1/s", plain.tokens);
    // A request is this workload's unit of work; bytes per engine
    // step would move with batch composition, i.e. with timing.
    report.add("wire_bytes_per_step",
               static_cast<double>(plain.wireBytes) /
                   static_cast<double>(count),
               "B", count);
    report.add("val_ppl", servedPerplexity(spec), "ppl", 1);
    report.add("ttft_ms.p50", lat.ttft.percentile(50), "ms", served);
    report.add("ttft_ms.p99", lat.ttft.percentile(99), "ms", served);
    report.add("tpot_ms.p50", lat.tpot.percentile(50), "ms",
               lat.tpot.count());
    report.add("latency_ms.p50", lat.latency.percentile(50), "ms", served);
    report.add("latency_ms.p99", lat.latency.percentile(99), "ms", served);
    report.add("slo_ok_ratio",
               static_cast<double>(lat.sloOk) / static_cast<double>(count),
               "ratio", count);
    report.add("setup_s", plain.setupSeconds, "s", 1);
    if (!opts.trace)
        return report;

    const PassResult traced = openLoopPass(spec, opts, requests, true);
    report.attempted += count;
    gatePass(report, traced, requests, "traced");
    int64_t differ = 0;
    for (size_t i = 0; i < requests.size(); ++i)
        differ += traced.outcomes[i].tokens != plain.outcomes[i].tokens;
    report.gate(differ == 0,
                "traced tokens == untraced tokens (" +
                    std::to_string(differ) + " differ)",
                differ);

    const std::vector<obs::TraceEvent> events = obs::traceEvents();
    const Latencies tl = latencies(traced, requests, opts);
    const int64_t steps = traced.steps;
    const double n = static_cast<double>(steps);

    report.add("serve.step_ms.p50", traced.stepMs.percentile(50), "ms", steps);
    report.add("serve.step_ms.p99", traced.stepMs.percentile(99), "ms", steps);
    report.add("serve.batch_size.mean", traced.batch.mean(), "count", steps);
    report.add("serve.queue_wait_ms.p50", tl.queueWait.percentile(50), "ms",
               tl.queueWait.count());
    report.add("serve.queue_wait_ms.p99", tl.queueWait.percentile(99), "ms",
               tl.queueWait.count());
    report.add("serve.prefill_ms", spanMsPerStep(events, "serve.prefill", steps),
               "ms", steps);
    report.add("serve.decode_ms", spanMsPerStep(events, "serve.decode", steps),
               "ms", steps);
    report.add("serve.pending.max", static_cast<double>(traced.pendingMax),
               "count", steps);
    report.add("loadgen.late_ms.max", traced.lateMsMax, "ms", count);

    const ServeProbes pr = runProbes(spec, opts.quick);
    report.add("nn.decode_us", pr.decodeUs, "us", 1);
    report.add("nn.prefill_us", pr.prefillUs, "us", 1);

    report.add("comm.events_per_step.inter_stage",
               static_cast<double>(traced.transportEvents) / n, "count", steps);
    report.add("comm.wire_bytes_per_step.inter_stage",
               static_cast<double>(traced.wireBytes) / n, "B", steps);
    report.add("comm.verb_busy_ms_per_step",
               static_cast<double>(traced.busyNs) * 1e-6 / n, "ms", steps);

    report.add("tensor.heap_allocs_per_step",
               static_cast<double>(traced.heapAllocs) / n, "count", steps);
    report.add("tensor.arena_peak_mb",
               static_cast<double>(mem::peakBytes()) / (1024.0 * 1024.0),
               "MB", 1);

    const int threads = runtimeThreads();
    report.add("runtime.tasks_per_step",
               static_cast<double>(traced.tasksSubmitted) / n, "count", steps);
    report.add("runtime.parallel_for_per_step",
               static_cast<double>(traced.parallelForCalls) / n, "count",
               steps);
    double busy = 0.0;
    for (const auto &e : events) {
        if (e.phase == 'X' && e.track >= 1 && e.track < 1000 &&
            std::strcmp(e.category, "runtime") == 0 &&
            (std::strcmp(e.name, "chunks") == 0 ||
             std::strcmp(e.name, "task") == 0))
            busy += msBetween(e.beginNs, e.endNs);
    }
    report.add("runtime.worker_busy_share",
               threads > 1 ? busy / ((threads - 1) * traced.wallMs) : 0.0,
               "ratio", steps);
    report.add("obs.untraced_step_ms", plain.stepMs.median(), "ms",
               plain.steps);
    report.add("obs.trace_overhead_ratio",
               traced.stepMs.median() / plain.stepMs.median(), "ratio", steps);
    obs::clearTrace();
    return report;
}

} // namespace perfbench
