/**
 * @file
 * Metric names, per-layer span aggregation and the derivations from
 * measured cells to the reported metrics.
 */

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "perfbench/src/drivers.h"
#include "perfbench/src/recorder.h"
#include "perfbench/src/trace.h"
#include "src/api/runtime.h"
#include "src/stats/stats.h"

namespace perfbench
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using MetricList = std::vector<Metric>;

/** The five algorithms every workload runs, in presentation order. */
const std::vector<rhtm::AlgoKind> &benchAlgos();

/** Every end-to-end metric name, in output order. */
std::vector<std::string> endToEndNames();

/** Every per-layer metric name, in output order. */
std::vector<std::string> perLayerNames();

inline double
ratioOf(uint64_t num, uint64_t den)
{
    return den == 0 ? 0.0 : static_cast<double>(num) / den;
}

/** Store op classes, in the order of the store.<class> spans. */
enum StoreClass : unsigned
{
    kStoreGetClass = 0,
    kStorePutClass,
    kStoreScanClass,
    kStoreRmwClass,
    kNumStoreClasses
};

/** One worker's per-layer recorders, filled from its traced ops. */
class LayerAgg
{
  public:
    /** Fold one finished operation's spans in; log the first ops. */
    void consume(const OpTrace &trace, size_t keepOps);

    /** Add @p other's recorders and counts (the span log stays). */
    void merge(const LayerAgg &other);

    /** Write the logged spans, one JSON object per line. */
    void writeLog(std::ostream &out, const char *algo) const;

    Recorder op;       //!< Whole operation.
    Recorder txn;      //!< api.runWith duration.
    Recorder overhead; //!< api.runWith self time (minus its bodies).
    Recorder body[kNumRbKinds];
    Recorder runOp;    //!< workloads.runOp duration.
    Recorder store[kNumStoreClasses];
    uint64_t runWiths = 0;
    uint64_t bodies = 0;

  private:
    struct Logged
    {
        uint64_t opId;
        Span span;
    };
    std::vector<Logged> log_;
    size_t loggedOps_ = 0;
};

/** An untraced cell as the end-to-end derivation sees it. */
struct CellView
{
    rhtm::AlgoKind algo;
    unsigned workers;
    std::vector<uint64_t> windows;
    std::vector<uint64_t> reference; //!< Same-round host reference.
    double windowSeconds;
    const Recorder *latency;
};

/** A traced cell as the per-layer derivation sees it. */
struct TracedView
{
    rhtm::AlgoKind algo;
    rhtm::StatsSummary stats;
    LayerAgg layers;
};

/**
 * ops_per_s.<A> and p99_us.<A> from the multi-worker cells,
 * ops_per_s_1t.<A> from the one-worker cells, and setup_s; every
 * figure normalized by the host reference (window.h).
 */
MetricList endToEndMetrics(const std::vector<CellView> &multi,
                           const std::vector<CellView> &single,
                           double setupSeconds);

/**
 * Every per-layer metric. Layers the workload bypasses report 0.
 * @param delayNs  Measured cost of one simDelay(stmAccessPenalty).
 * @param traceOverhead  1 - traced / untraced rh-norec throughput.
 */
MetricList perLayerMetrics(const std::string &workload,
                           const std::vector<TracedView> &cells,
                           double delayNs, double traceOverhead);

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
