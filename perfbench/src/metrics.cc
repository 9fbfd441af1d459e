#include "perfbench/src/metrics.h"

#include <map>

#include "perfbench/src/window.h"

namespace perfbench
{

using rhtm::AlgoKind;
using rhtm::Counter;

namespace
{

const std::vector<std::string> kHtmAlgos = {"lock-elision", "hy-norec",
                                            "rh-norec"};
const std::vector<std::string> kNOrecAlgos = {"norec", "hy-norec",
                                              "rh-norec"};
const std::vector<std::string> kRh = {"rh-norec"};
const std::vector<std::string> kTsExtAlgos = {"norec", "hy-norec"};

const std::vector<std::string> &
allAlgoNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (AlgoKind a : benchAlgos())
            n.push_back(rhtm::algoKindName(a));
        return n;
    }();
    return names;
}

/** A per-layer metric family: "<base>.<algo>" for each listed algo. */
struct Family
{
    std::string base;
    std::string unit;
    const std::vector<std::string> *algos; //!< nullptr: no algo suffix.
};

const std::vector<Family> &
families()
{
    static const std::vector<std::string> &a = allAlgoNames();
    static const std::vector<Family> f = {
        {"api.txn_ns.p50", "ns", &a},
        {"api.txn_ns.p99", "ns", &a},
        {"api.overhead_ns.p50", "ns", &a},
        {"api.attempts_per_txn", "1/txn", &a},
        {"structures.get_ns.p50", "ns", &a},
        {"structures.put_ns.p50", "ns", &a},
        {"structures.remove_ns.p50", "ns", &a},
        {"workloads.op_ns.p50", "ns", &a},
        {"workloads.op_ns.p99", "ns", &a},
        {"store.get_ns.p50", "ns", &kRh},
        {"store.get_ns.p99", "ns", &kRh},
        {"store.put_ns.p50", "ns", &kRh},
        {"store.put_ns.p99", "ns", &kRh},
        {"store.scan_ns.p50", "ns", &kRh},
        {"store.scan_ns.p99", "ns", &kRh},
        {"store.rmw_ns.p50", "ns", &kRh},
        {"store.rmw_ns.p99", "ns", &kRh},
        {"store.cross_restarts_per_commit", "1/commit", &a},
        {"store.escalations_per_rmw", "1/rmw", &a},
        {"core.useful_ratio", "ratio", &a},
        {"core.restarts_per_slowpath", "1/slowpath", &a},
        {"core.fastpath_commit_ratio", "ratio", &kHtmAlgos},
        {"core.fallbacks_per_op", "1/op", &kHtmAlgos},
        {"core.serial_commit_ratio", "ratio", &kHtmAlgos},
        {"core.killswitch_activations", "count", &kHtmAlgos},
        {"core.mixed_commit_ratio", "ratio", &kRh},
        {"core.prefix_success_ratio", "ratio", &kRh},
        {"core.postfix_success_ratio", "ratio", &kRh},
        {"core.revalidations_per_op", "1/op", &kNOrecAlgos},
        {"core.revalidations_skipped_ratio", "ratio", &kNOrecAlgos},
        {"core.ts_extensions_per_op", "1/op", &kTsExtAlgos},
        {"htm.conflict_aborts_per_op", "1/op", &kHtmAlgos},
        {"htm.capacity_aborts_per_op", "1/op", &kHtmAlgos},
        {"htm.subscription_aborts_per_op", "1/op", &kHtmAlgos},
        {"htm.accesses_per_op", "1/op", &kHtmAlgos},
        {"stm.accesses_per_op", "1/op", &a},
        {"model.penalty_share", "fraction", &a},
        {"trace.overhead_frac", "fraction", nullptr},
    };
    return f;
}

/**
 * Every per-algorithm quantity the traced run can derive for one
 * cell, keyed by family base. Layers the workload bypasses are absent.
 */
std::map<std::string, double>
derive(const std::string &workload, const TracedView &v, double delayNs)
{
    const rhtm::StatsSummary &s = v.stats;
    const LayerAgg &l = v.layers;
    auto get = [&s](Counter c) { return s.get(c); };
    const uint64_t ops = s.operations();
    const uint64_t slowCommits = get(Counter::kCommitsMixedPath) +
                                 get(Counter::kCommitsSoftwarePath) +
                                 get(Counter::kCommitsSerialPath);
    // Body executions: every hardware attempt, every slow-path run
    // (its commit or restart) and every cross-shard attempt.
    const uint64_t attempts =
        get(Counter::kFastPathAttempts) + slowCommits +
        get(Counter::kSlowPathRestarts) +
        get(Counter::kCrossShardCommits) +
        get(Counter::kCrossShardRestarts);
    const uint64_t slowAccesses =
        get(Counter::kSlowPathReads) + get(Counter::kSlowPathWrites);

    std::map<std::string, double> m;
    if (workload == "rbtree-read") {
        m["api.txn_ns.p50"] = l.txn.percentileNs(50);
        m["api.txn_ns.p99"] = l.txn.percentileNs(99);
        m["api.overhead_ns.p50"] = l.overhead.percentileNs(50);
        m["api.attempts_per_txn"] = ratioOf(l.bodies, l.runWiths);
        m["structures.get_ns.p50"] = l.body[kRbGet].percentileNs(50);
        m["structures.put_ns.p50"] = l.body[kRbPut].percentileNs(50);
        m["structures.remove_ns.p50"] =
            l.body[kRbRemove].percentileNs(50);
    } else if (workload == "intruder") {
        m["workloads.op_ns.p50"] = l.runOp.percentileNs(50);
        m["workloads.op_ns.p99"] = l.runOp.percentileNs(99);
    } else if (workload == "store-oltp") {
        static const char *const kClass[kNumStoreClasses] = {"get", "put",
                                                             "scan", "rmw"};
        for (unsigned c = 0; c < kNumStoreClasses; ++c) {
            std::string base = std::string("store.") + kClass[c] + "_ns";
            m[base + ".p50"] = l.store[c].percentileNs(50);
            m[base + ".p99"] = l.store[c].percentileNs(99);
        }
        m["store.cross_restarts_per_commit"] =
            ratioOf(get(Counter::kCrossShardRestarts),
                    get(Counter::kCrossShardCommits));
        m["store.escalations_per_rmw"] =
            ratioOf(get(Counter::kCrossShardEscalations),
                    l.store[kStoreRmwClass].count());
    }
    m["core.useful_ratio"] = ratioOf(ops, attempts);
    m["core.restarts_per_slowpath"] = s.restartsPerSlowPath();
    m["core.fastpath_commit_ratio"] =
        ratioOf(get(Counter::kCommitsFastPath), ops);
    m["core.fallbacks_per_op"] = ratioOf(get(Counter::kFallbacks), ops);
    m["core.serial_commit_ratio"] =
        ratioOf(get(Counter::kCommitsSerialPath), ops);
    m["core.killswitch_activations"] =
        static_cast<double>(get(Counter::kKillSwitchActivations));
    m["core.mixed_commit_ratio"] =
        ratioOf(get(Counter::kCommitsMixedPath), ops);
    m["core.prefix_success_ratio"] = s.prefixSuccessRatio();
    m["core.postfix_success_ratio"] = s.postfixSuccessRatio();
    m["core.revalidations_per_op"] =
        ratioOf(get(Counter::kRevalidations), ops);
    m["core.revalidations_skipped_ratio"] =
        ratioOf(get(Counter::kRevalidationsSkipped),
                get(Counter::kRevalidations) +
                    get(Counter::kRevalidationsSkipped));
    m["core.ts_extensions_per_op"] =
        ratioOf(get(Counter::kTsExtensions), ops);
    m["htm.conflict_aborts_per_op"] = s.conflictAbortsPerOp();
    m["htm.capacity_aborts_per_op"] = s.capacityAbortsPerOp();
    m["htm.subscription_aborts_per_op"] = s.subscriptionAbortsPerOp();
    m["htm.accesses_per_op"] = ratioOf(
        get(Counter::kFastPathReads) + get(Counter::kFastPathWrites), ops);
    m["stm.accesses_per_op"] = ratioOf(slowAccesses, ops);
    const double opNs = static_cast<double>(l.op.sumNs());
    m["model.penalty_share"] =
        opNs > 0 ? static_cast<double>(slowAccesses) * delayNs / opNs : 0.0;
    return m;
}

} // namespace

const std::vector<AlgoKind> &
benchAlgos()
{
    static const std::vector<AlgoKind> algos = {
        AlgoKind::kLockElision, AlgoKind::kNOrec, AlgoKind::kTl2,
        AlgoKind::kHybridNOrec, AlgoKind::kRhNOrec};
    return algos;
}

std::vector<std::string>
endToEndNames()
{
    std::vector<std::string> names;
    for (const char *base : {"ops_per_s", "ops_per_s_1t", "p99_us"})
        for (const std::string &a : allAlgoNames())
            names.push_back(std::string(base) + "." + a);
    names.push_back("setup_s");
    return names;
}

std::vector<std::string>
perLayerNames()
{
    std::vector<std::string> names;
    for (const Family &f : families()) {
        if (f.algos == nullptr) {
            names.push_back(f.base);
            continue;
        }
        for (const std::string &a : *f.algos)
            names.push_back(f.base + "." + a);
    }
    return names;
}

void
LayerAgg::consume(const OpTrace &trace, size_t keepOps)
{
    const std::vector<Span> &spans = trace.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const uint64_t dur = static_cast<uint64_t>(s.endNs - s.startNs);
        switch (s.name) {
          case SpanName::kOp:
            op.record(dur);
            break;
          case SpanName::kApiRunWith:
            txn.record(dur);
            overhead.record(static_cast<uint64_t>(
                selfTimeNs(spans, static_cast<int>(i))));
            ++runWiths;
            break;
          case SpanName::kApiBody:
            body[trace.kind() % kNumRbKinds].record(dur);
            ++bodies;
            break;
          case SpanName::kWorkloadsRunOp:
            runOp.record(dur);
            break;
          case SpanName::kStoreGet:
          case SpanName::kStorePut:
          case SpanName::kStoreScan:
          case SpanName::kStoreRmw:
            store[static_cast<unsigned>(s.name) -
                  static_cast<unsigned>(SpanName::kStoreGet)]
                .record(dur);
            break;
          case SpanName::kCount:
            break;
        }
    }
    if (loggedOps_ < keepOps) {
        ++loggedOps_;
        for (const Span &s : spans)
            log_.push_back(Logged{trace.opId(), s});
    }
}

void
LayerAgg::merge(const LayerAgg &other)
{
    op.merge(other.op);
    txn.merge(other.txn);
    overhead.merge(other.overhead);
    for (unsigned k = 0; k < kNumRbKinds; ++k)
        body[k].merge(other.body[k]);
    runOp.merge(other.runOp);
    for (unsigned c = 0; c < kNumStoreClasses; ++c)
        store[c].merge(other.store[c]);
    runWiths += other.runWiths;
    bodies += other.bodies;
}

void
LayerAgg::writeLog(std::ostream &out, const char *algo) const
{
    for (const Logged &l : log_) {
        out << "{\"algo\": \"" << algo << "\", \"op\": " << l.opId
            << ", \"span\": \"" << spanName(l.span.name)
            << "\", \"parent\": " << l.span.parent
            << ", \"start_ns\": " << l.span.startNs
            << ", \"end_ns\": " << l.span.endNs << "}\n";
    }
}

MetricList
endToEndMetrics(const std::vector<CellView> &multi,
                const std::vector<CellView> &single, double setupSeconds)
{
    MetricList out;
    auto rate = [](const CellView &c) {
        return normalizedThroughput(c.windows, c.reference, c.workers);
    };
    for (const CellView &c : multi)
        out.push_back({std::string("ops_per_s.") +
                           rhtm::algoKindName(c.algo),
                       rate(c), "1/s"});
    for (const CellView &c : single)
        out.push_back({std::string("ops_per_s_1t.") +
                           rhtm::algoKindName(c.algo),
                       rate(c), "1/s"});
    for (const CellView &c : multi)
        out.push_back({std::string("p99_us.") + rhtm::algoKindName(c.algo),
                       c.latency->percentileNs(99) / 1e3 *
                           referenceSpeed(c.reference, c.windowSeconds,
                                          c.workers),
                       "us"});
    out.push_back({"setup_s", setupSeconds, "s"});
    return out;
}

MetricList
perLayerMetrics(const std::string &workload,
                const std::vector<TracedView> &cells, double delayNs,
                double traceOverhead)
{
    std::map<std::string, std::map<std::string, double>> byAlgo;
    for (const TracedView &v : cells)
        byAlgo[rhtm::algoKindName(v.algo)] = derive(workload, v, delayNs);
    MetricList out;
    for (const Family &f : families()) {
        if (f.algos == nullptr) {
            out.push_back({f.base, traceOverhead, f.unit});
            continue;
        }
        for (const std::string &a : *f.algos) {
            double value = 0.0;
            auto algo = byAlgo.find(a);
            if (algo != byAlgo.end()) {
                auto it = algo->second.find(f.base);
                if (it != algo->second.end())
                    value = it->second;
            }
            out.push_back({f.base + "." + a, value, f.unit});
        }
    }
    return out;
}

} // namespace perfbench
