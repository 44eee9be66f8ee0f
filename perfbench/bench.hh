/**
 * @file
 * Shared pieces of the perfbench binary: options, exact sample
 * statistics, the metric report with its correctness gates, and the
 * small helpers both workload families use. See README.md for the
 * workloads and the metric map.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Command-line options of one perfbench process. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the timed region (per pass). */
    double seconds = 10.0;
    /** Run the traced pass (per-layer metrics) after the untraced one. */
    bool trace = false;
    /** Tiny sizes, every gate: the benchmark's own test mode. */
    bool quick = false;
    /** Only construct and warm up, report the set-up time, exit. */
    bool setupOnly = false;
    /** serve-open: offered Poisson arrival rate (requests/s). The
     *  defaults here and in run.py repeat BENCHMARK.json's command. */
    double serveRate = 100.0;
    /** SLO limits on TTFT and end-to-end latency (slo_ok_ratio). */
    double sloTtftMs = 100.0;
    double sloLatencyMs = 200.0;
    /** Clock reading at process start (main entry); set-up time
     *  runs from here to the end of warmup. */
    int64_t startNs = 0;
};

/**
 * Raw samples with exact order statistics. Percentiles are nearest
 * rank over the sorted samples (no bucketing), so a reported p99 is
 * one of the measured values.
 */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    void reserve(size_t n) { values_.reserve(n); }
    int64_t count() const
    {
        return static_cast<int64_t>(values_.size());
    }
    /** Nearest-rank percentile, p in [0, 100]; 0 when empty. */
    double percentile(double p) const;
    double median() const { return percentile(50.0); }
    double mean() const;
    double sum() const;
    const std::vector<double> &values() const { return values_; }

  private:
    std::vector<double> values_;
};

/** One reported number with its unit and sample count. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
};

/**
 * Everything one process measured: metrics, the attempted/failed
 * tallies behind failed_ratio, named gate failures, and the run
 * metadata. Printed as one JSON line (see main.cc).
 */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit, int64_t samples);
    /** Record a correctness gate; a failed gate adds @p failures
     *  (the units of work it lost) to the failed count. */
    bool gate(bool ok, const std::string &what, int64_t failures = 1);
    void meta(const std::string &key, const std::string &value);
    void meta(const std::string &key, double value);

    /** Units of work tried (steps or requests) and those failed. */
    int64_t attempted = 0;
    int64_t failed = 0;

    const std::vector<Metric> &metrics() const { return metrics_; }
    const std::vector<std::string> &gateFailures() const
    {
        return gateFailures_;
    }
    const std::vector<std::pair<std::string, std::string>> &
    metaFields() const
    {
        return meta_;
    }

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> gateFailures_;
    /** key -> JSON-encoded value. */
    std::vector<std::pair<std::string, std::string>> meta_;
};

/** @p s as a JSON string literal (control characters blanked). */
std::string jsonQuote(const std::string &s);
/** @p v with every digit, or null when not finite. */
std::string jsonNumber(double v);

/** Monotonic nanoseconds (the library's sanctioned clock). */
int64_t nowNs();

inline double
msBetween(int64_t begin_ns, int64_t end_ns)
{
    return static_cast<double>(end_ns - begin_ns) * 1e-6;
}

/** Peak resident set of this process in MiB. */
double peakRssMb();

/**
 * Time @p fn over @p reps calls after one untimed call and return
 * the median per-call time in microseconds.
 */
template <typename Fn>
double
medianCallUs(int reps, Fn &&fn)
{
    fn();
    Samples s;
    s.reserve(static_cast<size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const int64_t t0 = nowNs();
        fn();
        s.add(static_cast<double>(nowNs() - t0) * 1e-3);
    }
    return s.median();
}

/** Train workloads: "train-cc" and "train-wide". */
bool isTrainWorkload(const std::string &name);
Report runTrainWorkload(const Options &opts);
/** Construct and warm up one trainer; seconds since startNs. */
double trainSetupSeconds(const Options &opts);

/** Serve workload: "serve-open". */
bool isServeWorkload(const std::string &name);
Report runServeWorkload(const Options &opts);
double serveSetupSeconds(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
