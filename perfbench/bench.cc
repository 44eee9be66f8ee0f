#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include <sys/resource.h>

#include "obs/clock.hh"

namespace perfbench
{

double
Samples::percentile(double p) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    // Nearest rank: the smallest value with at least p% of the
    // samples at or below it.
    const double rank = std::ceil(p / 100.0 *
                                  static_cast<double>(sorted.size()));
    const size_t idx = static_cast<size_t>(
        std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
    return sorted[idx - 1];
}

double
Samples::mean() const
{
    return values_.empty() ? 0.0
                           : sum() / static_cast<double>(values_.size());
}

double
Samples::sum() const
{
    return std::accumulate(values_.begin(), values_.end(), 0.0);
}

void
Report::add(const std::string &name, double value,
            const std::string &unit, int64_t samples)
{
    metrics_.push_back({name, value, unit, samples});
}

bool
Report::gate(bool ok, const std::string &what, int64_t failures)
{
    if (!ok) {
        failed += std::max<int64_t>(1, failures);
        gateFailures_.push_back(what);
        std::fprintf(stderr, "perfbench: GATE FAILED: %s\n",
                     what.c_str());
    }
    return ok;
}

void
Report::meta(const std::string &key, const std::string &value)
{
    meta_.emplace_back(key, jsonQuote(value));
}

void
Report::meta(const std::string &key, double value)
{
    meta_.emplace_back(key, jsonNumber(value));
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int64_t
nowNs()
{
    return optimus::obs::nowNs();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
