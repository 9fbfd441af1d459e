/**
 * @file
 * Tests of the benchmark's own arithmetic: the latency recorder's
 * percentiles against exact ones, the window statistic, span self
 * time and the metric name lists.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "perfbench/src/metrics.h"
#include "perfbench/src/recorder.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/window.h"
#include "src/util/rng.h"

namespace perfbench
{
namespace
{

/** Nearest-rank percentile of @p sorted. */
uint64_t
exactPercentile(const std::vector<uint64_t> &sorted, double p)
{
    double exact = p / 100.0 * static_cast<double>(sorted.size());
    size_t rank = static_cast<size_t>(std::ceil(exact));
    rank = std::max<size_t>(rank, 1);
    return sorted[rank - 1];
}

TEST(Recorder, BucketsCoverTheirValues)
{
    for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 255ull, 256ull, 1000ull,
                       123456789ull, ~0ull}) {
        uint64_t lo = 0, width = 0;
        Recorder::bucketRange(Recorder::bucketOf(v), lo, width);
        EXPECT_LE(lo, v);
        EXPECT_LE(v - lo, width - 1);
        // Relative bucket width at most 1/128 above the exact range.
        if (v >= Recorder::kSub) {
            EXPECT_LE(static_cast<double>(width) / lo, 1.0 / 128 + 1e-12);
        }
    }
}

TEST(Recorder, PercentilesMatchExactWithinTwoPercent)
{
    rhtm::Rng rng(42);
    std::vector<uint64_t> samples;
    Recorder r;
    for (int i = 0; i < 100000; ++i) {
        // Log-uniform over 50 ns .. 5 ms, like operation latencies.
        double e = 1.7 + 3.0 * (static_cast<double>(rng.next() >> 11) /
                                9007199254740992.0);
        uint64_t v = static_cast<uint64_t>(std::pow(10.0, e));
        samples.push_back(v);
        r.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
        double exact = static_cast<double>(exactPercentile(samples, p));
        double got = r.percentileNs(p);
        EXPECT_LE(std::fabs(got - exact) / exact, 0.02)
            << "p" << p << " exact " << exact << " got " << got;
    }
    EXPECT_EQ(r.count(), samples.size());
}

TEST(Recorder, SmallValuesAreExact)
{
    Recorder r;
    for (uint64_t v = 1; v <= 100; ++v)
        r.record(v);
    EXPECT_EQ(r.percentileNs(50), 50.0);
    EXPECT_EQ(r.percentileNs(99), 99.0);
    EXPECT_EQ(r.percentileNs(100), 100.0);
    EXPECT_EQ(Recorder().percentileNs(99), 0.0);
}

TEST(Recorder, MergeAddsCounts)
{
    Recorder a, b;
    a.record(10);
    b.record(20);
    b.record(30);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sumNs(), 60u);
    EXPECT_EQ(a.percentileNs(100), 30.0);
}

TEST(Window, QuantileInterpolatesLinearly)
{
    EXPECT_EQ(quantile({}, 0.5), 0.0);
    EXPECT_EQ(quantile({7.0}, 0.9), 7.0);
    EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(quantile({5, 1, 4, 2, 3}, 0.9), 4.6);
    EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Window, RatesDivideByWindowLength)
{
    std::vector<double> rates = windowRates({1000, 400}, 0.05);
    EXPECT_DOUBLE_EQ(rates[0], 20000.0);
    EXPECT_DOUBLE_EQ(rates[1], 8000.0);
}

TEST(Window, PairedRatioCancelsSlowRounds)
{
    // Rounds 2 and 4 ran on a host slowed 2x: the cell and the
    // reference measured in the same round slow alike.
    std::vector<uint64_t> ref = {1000, 1000, 500, 1000, 500};
    std::vector<uint64_t> cell = {400, 400, 200, 400, 200};
    EXPECT_DOUBLE_EQ(pairedRatio(cell, ref), 0.4);
    EXPECT_DOUBLE_EQ(normalizedThroughput(cell, ref, 4),
                     0.4 * 4 * kReferenceRatePerWorker);
    // The median ignores one odd round in either direction.
    cell[0] = 1000;
    cell[1] = 0;
    EXPECT_DOUBLE_EQ(pairedRatio(cell, ref), 0.4);
}

TEST(Window, ReferenceSpeedIsMedianRateOverNominal)
{
    // 4 workers at the nominal rate fill a 50 ms window with
    // 4 * 1.3e6 * 0.05 = 260000 ops; a host at half speed, 130000.
    std::vector<uint64_t> ref = {260000, 130000, 260000, 260000, 130000};
    EXPECT_DOUBLE_EQ(referenceSpeed(ref, 0.05, 4), 1.0);
    EXPECT_DOUBLE_EQ(referenceSpeed({130000, 130000}, 0.05, 4), 0.5);
}

TEST(Window, PairedRatioSkipsEmptyReferenceWindows)
{
    EXPECT_DOUBLE_EQ(pairedRatio({10, 30, 50}, {0, 10, 10}), 4.0);
    EXPECT_EQ(pairedRatio({10}, {0}), 0.0);
    EXPECT_EQ(pairedRatio({}, {}), 0.0);
}

Span
span(SpanName name, int parent, int64_t start, int64_t end)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    return s;
}

TEST(Trace, SelfTimeSubtractsChildren)
{
    std::vector<Span> spans = {
        span(SpanName::kOp, -1, 0, 200),
        span(SpanName::kApiRunWith, 0, 10, 110),
        span(SpanName::kApiBody, 1, 20, 40),
        span(SpanName::kApiBody, 1, 60, 90),
    };
    EXPECT_EQ(selfTimeNs(spans, 1), 100 - 20 - 30);
    // Only direct children count: the op minus its runWith.
    EXPECT_EQ(selfTimeNs(spans, 0), 200 - 100);
    EXPECT_EQ(selfTimeNs(spans, 2), 20);
}

TEST(Trace, SelfTimeCountsOverlapOnceAndClipsToParent)
{
    std::vector<Span> spans = {
        span(SpanName::kApiRunWith, -1, 100, 200),
        span(SpanName::kApiBody, 0, 90, 130),  // Clipped to 100..130.
        span(SpanName::kApiBody, 0, 120, 150), // Overlaps the first.
        span(SpanName::kApiBody, 0, 190, 250), // Clipped to 190..200.
    };
    EXPECT_EQ(selfTimeNs(spans, 0), 100 - 50 - 10);
}

TEST(Trace, ScopedSpansNestAndCloseOnUnwind)
{
    OpTrace t;
    t.beginOp(7);
    {
        ScopedSpan op(&t, SpanName::kOp, -1);
        ScopedSpan run(&t, SpanName::kApiRunWith, op.index());
        try {
            ScopedSpan body(&t, SpanName::kApiBody, run.index());
            throw 1;
        } catch (int) {
        }
    }
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[2].parent, 1);
    for (const Span &s : t.spans())
        EXPECT_GE(s.endNs, s.startNs);
    ScopedSpan none(nullptr, SpanName::kOp, -1);
    EXPECT_EQ(none.index(), -1);
}

TEST(Metrics, NameListsAreCompleteAndUnique)
{
    std::vector<std::string> e2e = endToEndNames();
    EXPECT_EQ(e2e.size(), 16u);
    std::vector<std::string> layer = perLayerNames();
    EXPECT_EQ(layer.size(), 119u);
    std::set<std::string> unique(layer.begin(), layer.end());
    EXPECT_EQ(unique.size(), layer.size());
    MetricList traced = perLayerMetrics("intruder", {}, 10.0, 0.05);
    ASSERT_EQ(traced.size(), layer.size());
    for (size_t i = 0; i < layer.size(); ++i)
        EXPECT_EQ(traced[i].name, layer[i]);
}

} // namespace
} // namespace perfbench
