/**
 * @file
 * The benchmark's throughput statistic.
 *
 * Every cell's timed slices are cut into fixed windows, and each
 * window's committed operations divided by its length is one rate
 * sample. A shared host slows whole stretches of a run, often the
 * whole run, by up to 2x; an upper quantile of a cell's own windows
 * cannot see a run that was slow throughout. So every round also runs
 * a library-free host reference (drivers.h), and a cell's throughput
 * is the median, over its windows, of the cell's rate divided by the
 * reference's rate in the same round, scaled by the reference's
 * nominal rate. A window slowed by a co-tenant is divided by a
 * reference slowed alike. Tail latency is taken over every sample, so
 * intermittent stalls stay in it; only its scale is normalized, by the
 * reference's speed over the whole run.
 */

#ifndef PERFBENCH_WINDOW_H
#define PERFBENCH_WINDOW_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench
{

/**
 * Nominal host reference rate per worker (ops/s): the median the
 * reference measured on the 4-vCPU Xeon host the benchmark was
 * defined on. Normalized throughputs read as "on a host where the
 * reference runs at this rate".
 */
constexpr double kReferenceRatePerWorker = 1.3e6;

/**
 * Linear-interpolation quantile @p q in [0, 1] of @p values (the
 * "linear" method: position q * (n - 1)); 0 when empty.
 */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    if (lo + 1 >= values.size())
        return values.back();
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[lo + 1] - values[lo]) * frac;
}

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Rate (per second) of each window of @p windowSeconds. */
inline std::vector<double>
windowRates(const std::vector<uint64_t> &counts, double windowSeconds)
{
    std::vector<double> rates;
    rates.reserve(counts.size());
    for (uint64_t c : counts)
        rates.push_back(static_cast<double>(c) / windowSeconds);
    return rates;
}

/**
 * Median over paired windows of @p counts[i] / @p reference[i]; windows
 * where the reference did nothing are skipped. 0 when none pair.
 */
inline double
pairedRatio(const std::vector<uint64_t> &counts,
            const std::vector<uint64_t> &reference)
{
    std::vector<double> ratios;
    for (size_t i = 0; i < counts.size() && i < reference.size(); ++i) {
        if (reference[i] > 0)
            ratios.push_back(static_cast<double>(counts[i]) /
                             static_cast<double>(reference[i]));
    }
    return median(std::move(ratios));
}

/**
 * The throughput statistic: @p counts relative to the same-round host
 * reference that ran with the same @p workers, in nominal ops/s.
 */
inline double
normalizedThroughput(const std::vector<uint64_t> &counts,
                     const std::vector<uint64_t> &reference,
                     unsigned workers)
{
    return pairedRatio(counts, reference) * workers *
           kReferenceRatePerWorker;
}

/**
 * How fast the host ran during the run, relative to nominal: the
 * reference's median window rate over @p workers × the nominal rate.
 * Latencies are multiplied by it to read as on the nominal host.
 */
inline double
referenceSpeed(const std::vector<uint64_t> &reference, double windowSeconds,
               unsigned workers)
{
    return median(windowRates(reference, windowSeconds)) /
           (workers * kReferenceRatePerWorker);
}

} // namespace perfbench

#endif // PERFBENCH_WINDOW_H
