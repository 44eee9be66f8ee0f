/**
 * @file
 * perfbench: runs one workload in this process and prints
 * its metrics as one JSON line (the last line of stdout). run.py
 * builds this binary, starts one fresh process per workload and per
 * set-up sample, and turns the lines into the benchmark result.
 *
 * Usage: perfbench --workload train-cc|train-wide|serve-open
 *                  [--seed N] [--seconds S] [--trace 0|1] [--quick]
 *                  [--setup-only] [--serve-rate R]
 *                  [--slo-ttft-ms T] [--slo-latency-ms L]
 *
 * Pool width comes from OPTIMUS_THREADS, set by run.py per workload.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "runtime/runtime.hh"
#include "tensor/simd.hh"

namespace
{

using perfbench::jsonNumber;
using perfbench::jsonQuote;
using perfbench::Options;
using perfbench::Report;

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ',
                                                          colon + 1));
        }
    }
    return "unknown";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "perfbench: %s\n", why);
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--quick] "
                 "[--setup-only] [--serve-rate R] [--slo-ttft-ms T] "
                 "[--slo-latency-ms L]\n");
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        auto number = [&]() {
            const std::string text = value();
            char *end = nullptr;
            const double v = std::strtod(text.c_str(), &end);
            if (end == text.c_str() || *end != '\0' || !std::isfinite(v))
                usage(("bad number for " + arg).c_str());
            return v;
        };
        if (arg == "--workload") {
            opts.workload = value();
        } else if (arg == "--seed") {
            const double v = number();
            if (v < 0 || v != std::floor(v))
                usage("--seed must be a non-negative integer");
            opts.seed = static_cast<uint64_t>(v);
        } else if (arg == "--seconds") {
            opts.seconds = number();
            if (opts.seconds <= 0 || opts.seconds > 600)
                usage("--seconds must be in (0, 600]");
        } else if (arg == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                usage("--trace must be 0 or 1");
            opts.trace = t == "1";
        } else if (arg == "--quick") {
            opts.quick = true;
        } else if (arg == "--setup-only") {
            opts.setupOnly = true;
        } else if (arg == "--serve-rate") {
            opts.serveRate = number();
            if (opts.serveRate <= 0)
                usage("--serve-rate must be positive");
        } else if (arg == "--slo-ttft-ms") {
            opts.sloTtftMs = number();
        } else if (arg == "--slo-latency-ms") {
            opts.sloLatencyMs = number();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (opts.workload.empty())
        usage("--workload is required");
    return opts;
}

void
printReport(const Options &opts, const Report &report)
{
    std::string line = "{\"workload\": " + jsonQuote(opts.workload);
    line += ", \"attempted\": " + std::to_string(report.attempted);
    line += ", \"failed\": " + std::to_string(report.failed);
    line += ", \"gate_failures\": [";
    for (size_t i = 0; i < report.gateFailures().size(); ++i) {
        line += (i ? ", " : "") + jsonQuote(report.gateFailures()[i]);
    }
    line += "], \"meta\": {";
    for (size_t i = 0; i < report.metaFields().size(); ++i) {
        const auto &kv = report.metaFields()[i];
        line += (i ? ", " : "") + jsonQuote(kv.first) + ": " + kv.second;
    }
    line += "}, \"metrics\": {";
    for (size_t i = 0; i < report.metrics().size(); ++i) {
        const auto &m = report.metrics()[i];
        line += (i ? ", " : "") + jsonQuote(m.name) +
                ": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": " + jsonQuote(m.unit) +
                ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const int64_t start_ns = perfbench::nowNs();
    Options opts = parseOptions(argc, argv);
    opts.startNs = start_ns;
    const bool train = perfbench::isTrainWorkload(opts.workload);
    if (!train && !perfbench::isServeWorkload(opts.workload))
        usage(("unknown workload " + opts.workload).c_str());

    if (opts.setupOnly) {
        const double s =
            train ? perfbench::trainSetupSeconds(opts)
                  : perfbench::serveSetupSeconds(opts);
        Report report;
        report.attempted = 1;
        report.add("setup_s", s, "s", 1);
        printReport(opts, report);
        return 0;
    }

    Report report = train ? perfbench::runTrainWorkload(opts)
                          : perfbench::runServeWorkload(opts);

    report.meta("workload", opts.workload);
    report.meta("seed", static_cast<double>(opts.seed));
    report.meta("seconds", opts.seconds);
    report.meta("trace", opts.trace ? 1.0 : 0.0);
    report.meta("quick", opts.quick ? 1.0 : 0.0);
    report.meta("pool_threads",
                static_cast<double>(optimus::runtimeThreads()));
    report.meta("simd_tier",
                optimus::simd::tierName(optimus::simd::tier()));
    report.meta("cpu_model", cpuModel());
    report.meta("cores",
                static_cast<double>(std::thread::hardware_concurrency()));
    report.meta("optimus_native", PERFBENCH_NATIVE ? 1.0 : 0.0);
    report.add("peak_rss_mb", perfbench::peakRssMb(), "MB", 1);
    printReport(opts, report);
    return report.failed == 0 ? 0 : 1;
}
