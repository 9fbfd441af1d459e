/**
 * @file
 * Fine-grained latency recorder for the benchmark.
 *
 * Log-linear layout: values below 128 ns get one exact bucket each;
 * above that every power-of-two octave is split into 128 linear
 * sub-buckets, so a bucket is at most 1/128 (0.78 %) of its lower
 * edge wide. Percentiles report the bucket midpoint, which is within
 * 0.4 % of every sample in the bucket. The library's LatencyHistogram
 * uses 4 sub-buckets (25 %), too coarse for a p99 that must repeat
 * between runs.
 */

#ifndef PERFBENCH_RECORDER_H
#define PERFBENCH_RECORDER_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench
{

class Recorder
{
  public:
    static constexpr unsigned kSubBits = 7;
    static constexpr uint64_t kSub = uint64_t(1) << kSubBits;
    static constexpr unsigned kNumBuckets =
        static_cast<unsigned>(kSub + (64 - kSubBits) * kSub);

    Recorder() : buckets_(kNumBuckets, 0) {}

    void
    record(uint64_t ns)
    {
        ++buckets_[bucketOf(ns)];
        ++count_;
        sum_ += ns;
    }

    void
    merge(const Recorder &other)
    {
        for (unsigned i = 0; i < kNumBuckets; ++i)
            buckets_[i] += other.buckets_[i];
        count_ += other.count_;
        sum_ += other.sum_;
    }

    void
    reset()
    {
        std::fill(buckets_.begin(), buckets_.end(), 0);
        count_ = 0;
        sum_ = 0;
    }

    uint64_t count() const { return count_; }
    uint64_t sumNs() const { return sum_; }

    /**
     * Nearest-rank percentile @p p (0 < p <= 100): the midpoint of the
     * bucket holding the ceil(p/100 * count)-th smallest sample; 0 when
     * empty.
     */
    double
    percentileNs(double p) const
    {
        if (count_ == 0)
            return 0.0;
        double exact = p / 100.0 * static_cast<double>(count_);
        uint64_t rank = static_cast<uint64_t>(exact);
        if (static_cast<double>(rank) < exact)
            ++rank;
        if (rank == 0)
            rank = 1;
        uint64_t seen = 0;
        for (unsigned i = 0; i < kNumBuckets; ++i) {
            seen += buckets_[i];
            if (seen >= rank)
                return midpoint(i);
        }
        return midpoint(kNumBuckets - 1);
    }

    static unsigned
    bucketOf(uint64_t v)
    {
        if (v < kSub)
            return static_cast<unsigned>(v);
        unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
        unsigned shift = e - kSubBits;
        uint64_t sub = (v >> shift) & (kSub - 1);
        return static_cast<unsigned>(kSub + shift * kSub + sub);
    }

    /** Lower edge and width of bucket @p i. */
    static void
    bucketRange(unsigned i, uint64_t &lo, uint64_t &width)
    {
        if (i < kSub) {
            lo = i;
            width = 1;
            return;
        }
        unsigned octave = (i - static_cast<unsigned>(kSub)) /
                          static_cast<unsigned>(kSub);
        uint64_t sub = (i - kSub) % kSub;
        lo = (kSub + sub) << octave;
        width = uint64_t(1) << octave;
    }

    static double
    midpoint(unsigned i)
    {
        uint64_t lo = 0, width = 0;
        bucketRange(i, lo, width);
        if (width == 1)
            return static_cast<double>(lo);
        return static_cast<double>(lo) + static_cast<double>(width) / 2.0;
    }

  private:
    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_RECORDER_H
