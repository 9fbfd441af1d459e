/**
 * @file
 * The repository benchmark: closed-loop workloads across five TM
 * algorithms, measured from outside the library.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--out DIR] [--commit ID] [--list-metrics]
 *
 * --trace 0 measures the end-to-end metrics: for each algorithm a cell
 * with min(4, nproc) workers and a cell with one worker. --trace 1
 * runs the same workload with spans around the library calls and
 * derives the per-layer metrics, next to an untraced rh-norec cell
 * that prices the tracing. All cells of a run are set up first, then
 * measured in interleaved rounds of short slices, so host noise is
 * spread over every cell instead of landing on one. The last line of
 * standard output is one JSON object with the result.
 */

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/drivers.h"
#include "perfbench/src/metrics.h"
#include "perfbench/src/recorder.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/window.h"
#include "src/util/backoff.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{
namespace
{

using rhtm::AlgoKind;

constexpr unsigned kMaxWorkers = 4;
constexpr double kTargetSliceSeconds = 0.05;
constexpr unsigned kSetupReps = 5;
constexpr unsigned kSetupReferenceOps = 10000;
constexpr size_t kLoggedOpsPerWorker = 256;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;
    std::string commit = "unknown";
    bool listMetrics = false;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload rbtree-read|intruder|"
                 "store-oltp --seed N --seconds S --trace 0|1\n"
                 "                 [--out DIR] [--commit ID] "
                 "[--list-metrics]\n",
                 msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        if (key.rfind("--", 0) != 0)
            usage("unexpected argument " + key);
        if (key == "--list-metrics") {
            a.listMetrics = true;
            continue;
        }
        size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage("missing value for " + key);
        }
        try {
            if (key == "--workload")
                a.workload = value;
            else if (key == "--seed")
                a.seed = std::stoull(value);
            else if (key == "--seconds")
                a.seconds = std::stod(value);
            else if (key == "--trace")
                a.trace = std::stoi(value) != 0;
            else if (key == "--out")
                a.outDir = value;
            else if (key == "--commit")
                a.commit = value;
            else
                usage("unknown option " + key);
        } catch (const std::exception &) {
            usage("bad value for " + key + ": " + value);
        }
    }
    if (a.listMetrics)
        return a;
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0.0) || a.seconds > 600.0)
        usage("--seconds must be in (0, 600]");
    return a;
}

/**
 * Fixed worker threads that run one job at a time. A job runs on
 * workers [0, active); the others stay blocked.
 */
class WorkerPool
{
  public:
    explicit WorkerPool(unsigned n)
    {
        for (unsigned w = 0; w < n; ++w)
            threads_.emplace_back([this, w] { loop(w); });
    }

    ~WorkerPool()
    {
        {
            std::lock_guard<std::mutex> guard(lock_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Run @p job(w) for w < @p active and wait for every call. */
    void
    run(unsigned active, const std::function<void(unsigned)> &job)
    {
        std::unique_lock<std::mutex> guard(lock_);
        job_ = &job;
        active_ = active;
        pending_ = active;
        error_ = nullptr;
        ++generation_;
        wake_.notify_all();
        done_.wait(guard, [this] { return pending_ == 0; });
        job_ = nullptr;
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    void
    loop(unsigned w)
    {
        uint64_t seen = 0;
        for (;;) {
            const std::function<void(unsigned)> *job = nullptr;
            {
                std::unique_lock<std::mutex> guard(lock_);
                wake_.wait(guard,
                           [&] { return stop_ || generation_ != seen; });
                if (stop_)
                    return;
                seen = generation_;
                if (w >= active_)
                    continue;
                job = job_;
            }
            std::exception_ptr err;
            try {
                (*job)(w);
            } catch (...) {
                err = std::current_exception();
            }
            std::lock_guard<std::mutex> guard(lock_);
            if (err && !error_)
                error_ = err;
            if (--pending_ == 0)
                done_.notify_all();
        }
    }

    std::mutex lock_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(unsigned)> *job_ = nullptr;
    unsigned active_ = 0;
    unsigned pending_ = 0;
    uint64_t generation_ = 0;
    bool stop_ = false;
    std::exception_ptr error_;
    std::vector<std::thread> threads_; // Last: joins before the rest go.
};

/** Everything one worker records in one cell. */
struct alignas(64) WorkerState
{
    explicit WorkerState(uint64_t seed) : rng(seed) {}

    rhtm::Rng rng;
    Recorder latency;
    std::vector<uint64_t> windows; //!< Committed ops per slice.
    uint64_t attempted = 0;
    uint64_t committed = 0;
    uint64_t failed = 0;
    uint64_t wrong = 0;
    uint64_t seq = 0;
    OpTrace trace;
    LayerAgg layers;
};

struct Cell
{
    AlgoKind algo = AlgoKind::kRhNOrec;
    unsigned workers = 1;
    bool traced = false;
    bool reference = false; //!< Host reference, not a library cell.
    std::unique_ptr<Driver> driver;
    std::vector<std::unique_ptr<WorkerState>> ws;
    unsigned slices = 0;
    bool verified = true;
    std::string why;
    rhtm::StatsSummary stats;

    std::string
    label() const
    {
        return std::string(reference ? "host-ref"
                                     : rhtm::algoKindName(algo)) +
               "/" +
               std::to_string(workers) + "w" + (traced ? "/traced" : "");
    }

    std::vector<uint64_t>
    windows() const
    {
        std::vector<uint64_t> sum(ws[0]->windows.size(), 0);
        for (const auto &w : ws)
            for (size_t i = 0; i < sum.size(); ++i)
                sum[i] += w->windows[i];
        return sum;
    }

    Recorder
    latency() const
    {
        Recorder r;
        for (const auto &w : ws)
            r.merge(w->latency);
        return r;
    }

    LayerAgg
    layers() const
    {
        LayerAgg agg;
        for (const auto &w : ws)
            agg.merge(w->layers);
        return agg;
    }

    uint64_t
    total(uint64_t WorkerState::*field) const
    {
        uint64_t n = 0;
        for (const auto &w : ws)
            n += (*w).*field;
        return n;
    }
};

/** Million iterations per second of a fixed integer loop. */
double
aluSpinRate(double seconds)
{
    uint64_t x = 88172645463325252ull;
    uint64_t iters = 0;
    const int64_t start = nowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    int64_t now = start;
    while (now < end) {
        for (int i = 0; i < 4096; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        iters += 4096;
        now = nowNs();
    }
    asm volatile("" : : "r"(x));
    return static_cast<double>(iters) / (static_cast<double>(now - start) /
                                         1e9) / 1e6;
}

/** Median wall time of one simDelay(@p cycles) call, in ns. */
double
simDelayNs(unsigned cycles)
{
    constexpr int kCalls = 20000;
    std::vector<double> reps;
    for (int r = 0; r < 7; ++r) {
        int64_t t0 = nowNs();
        for (int i = 0; i < kCalls; ++i)
            rhtm::simDelay(cycles);
        reps.push_back(static_cast<double>(nowNs() - t0) / kCalls);
    }
    return median(reps);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const MetricList &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonString(metrics[i].name) + ": {\"value\": " +
               jsonNumber(metrics[i].value) + ", \"unit\": " +
               jsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

int
runBenchmark(const Args &args)
{
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned workers = std::min(kMaxWorkers, nproc);
    const double aluBefore = aluSpinRate(0.05);
    const double delayNs =
        simDelayNs(benchRuntimeConfig(args.seed).stmAccessPenalty);

    // The cells of this run, in a fixed order.
    std::vector<Cell> cells;
    for (AlgoKind algo : benchAlgos()) {
        Cell c;
        c.algo = algo;
        c.workers = workers;
        c.traced = args.trace;
        cells.push_back(std::move(c));
        if (!args.trace) {
            Cell one;
            one.algo = algo;
            one.workers = 1;
            cells.push_back(std::move(one));
        }
    }
    if (args.trace) {
        Cell base; // Prices the tracing: untraced rh-norec.
        base.algo = AlgoKind::kRhNOrec;
        base.workers = workers;
        cells.push_back(std::move(base));
    }

    for (unsigned n : {workers, 1u}) {
        Cell ref;
        ref.reference = true;
        ref.workers = n;
        cells.push_back(std::move(ref));
    }

    // Set-up, repeated: construct and populate every cell, time the
    // sum; the last repetition's instances are the ones measured. Each
    // repetition sits between two runs of the one-worker host
    // reference, whose rate normalizes it like the throughputs.
    std::unique_ptr<Driver> setupRef = makeHostReference(args.seed);
    setupRef->addWorkers(1);
    rhtm::Rng setupRefRng(args.seed);
    auto referenceSeconds = [&] {
        int64_t t0 = nowNs();
        for (unsigned i = 0; i < kSetupReferenceOps; ++i)
            setupRef->op(0, setupRefRng, nullptr);
        return static_cast<double>(nowNs() - t0) / 1e9;
    };
    std::vector<double> setupSums, setupNormalized;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        for (Cell &c : cells)
            c.driver.reset();
        double refSeconds = referenceSeconds();
        double sum = 0.0;
        for (size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].reference) {
                cells[i].driver = makeHostReference(args.seed + i);
                continue;
            }
            int64_t t0 = nowNs();
            cells[i].driver = makeDriver(args.workload, cells[i].algo,
                                         args.seed * 7919 + i);
            cells[i].driver->setup();
            sum += static_cast<double>(nowNs() - t0) / 1e9;
        }
        refSeconds += referenceSeconds();
        setupSums.push_back(sum);
        double refRate = 2.0 * kSetupReferenceOps / refSeconds;
        setupNormalized.push_back(sum * refRate / kReferenceRatePerWorker);
    }

    // `rounds` interleaved rounds; every round gives each cell one
    // slice, and each slice is one throughput window.
    const unsigned rounds = std::max<unsigned>(
        1, static_cast<unsigned>(args.seconds /
                                     (cells.size() * kTargetSliceSeconds) +
                                 0.5));
    const double sliceSeconds = args.seconds / (cells.size() * rounds);
    const int64_t sliceNs = static_cast<int64_t>(sliceSeconds * 1e9);

    for (size_t i = 0; i < cells.size(); ++i) {
        Cell &c = cells[i];
        c.driver->addWorkers(c.workers);
        c.driver->resetStats();
        for (unsigned w = 0; w < c.workers; ++w) {
            auto st = std::make_unique<WorkerState>(
                args.seed * 1000003 + i * 131 + w * 7 + 1);
            st->windows.assign(rounds, 0);
            c.ws.push_back(std::move(st));
        }
    }

    WorkerPool pool(workers);
    rhtm::Rng orderRng(args.seed ^ 0x5bd1e995u);
    std::vector<size_t> order(cells.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const int64_t runStart = nowNs();
    for (unsigned r = 0; r < rounds; ++r) {
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[orderRng.nextBounded(i)]);
        for (size_t idx : order) {
            Cell &c = cells[idx];
            const int64_t t0 = nowNs() + 1000000; // Start together.
            const int64_t tEnd = t0 + sliceNs;
            pool.run(c.workers, [&](unsigned w) {
                WorkerState &st = *c.ws[w];
                OpTrace *tr = c.traced ? &st.trace : nullptr;
                while (nowNs() < t0)
                    rhtm::cpuRelax();
                for (;;) {
                    const int64_t s = nowNs();
                    if (s >= tEnd)
                        break;
                    if (tr != nullptr)
                        tr->beginOp((uint64_t(w) << 48) | st.seq);
                    ++st.seq;
                    OpResult res = c.driver->op(w, st.rng, tr);
                    const int64_t e = nowNs();
                    st.latency.record(static_cast<uint64_t>(e - s));
                    ++st.attempted;
                    if (res == OpResult::kCommitted) {
                        ++st.committed;
                        if (e < tEnd)
                            ++st.windows[c.slices];
                    } else if (res == OpResult::kFailed) {
                        ++st.failed;
                    } else {
                        ++st.wrong;
                    }
                    if (tr != nullptr)
                        st.layers.consume(*tr, kLoggedOpsPerWorker);
                }
            });
            ++c.slices;
        }
    }
    const double measuredSeconds =
        static_cast<double>(nowNs() - runStart) / 1e9;

    // Output checks.
    uint64_t attempted = 0, failed = 0;
    bool correct = true;
    for (Cell &c : cells) {
        if (c.reference)
            continue;
        c.stats = c.driver->stats();
        c.verified = c.driver->verify(&c.why);
        uint64_t cellAttempted = c.total(&WorkerState::attempted);
        attempted += cellAttempted;
        uint64_t cellFailed = c.total(&WorkerState::failed) +
                              c.total(&WorkerState::wrong);
        if (!c.verified || c.total(&WorkerState::wrong) > 0)
            correct = false;
        failed += c.verified ? cellFailed : cellAttempted;
    }
    // The recorded serializability leg, once per algorithm.
    std::vector<AlgoKind> legged;
    for (Cell &c : cells) {
        if (c.reference ||
            std::find(legged.begin(), legged.end(), c.algo) != legged.end())
            continue;
        legged.push_back(c.algo);
        uint64_t legOps = 0;
        std::string why;
        bool ok = c.driver->checkLeg(legOps, &why);
        attempted += legOps;
        if (!ok) {
            correct = false;
            failed += legOps;
            c.verified = false;
            c.why = why;
        }
    }
    const double aluAfter = aluSpinRate(0.05);

    // Human-readable report.
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("# provenance: nproc=%u workers=%u build_type=%s "
                "commit=%s alu_mips_before=%.1f alu_mips_after=%.1f "
                "simdelay64_ns=%.2f\n",
                nproc, workers, PERFBENCH_BUILD_TYPE, args.commit.c_str(),
                aluBefore, aluAfter, delayNs);
    std::printf("# schedule: cells=%zu rounds=%u slice_s=%.4f "
                "measured_s=%.2f setup_s=[",
                cells.size(), rounds, sliceSeconds, measuredSeconds);
    for (double s : setupSums)
        std::printf(" %.4f", s);
    std::printf(" ] setup_norm_s=[");
    for (double s : setupNormalized)
        std::printf(" %.4f", s);
    std::printf(" ]\n");
    std::vector<Recorder> latencies;
    for (const Cell &c : cells)
        latencies.push_back(c.latency());
    // The host reference that ran with each worker count.
    auto referenceFor = [&cells](unsigned n) {
        for (const Cell &c : cells)
            if (c.reference && c.workers == n)
                return c.windows();
        return std::vector<uint64_t>();
    };
    std::printf("# %-24s %12s %12s %12s %12s %9s %9s %10s %8s %8s %8s "
                "%s\n",
                "cell", "attempted", "failed", "ops_per_s", "raw_med_1/s",
                "raw_p50us", "raw_p99us", "samples", "confl", "slow%",
                "stm_acc", "verified");
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const Recorder &lat = latencies[i];
        std::vector<uint64_t> win = c.windows();
        const rhtm::StatsSummary &s = c.stats;
        double rawMedian = median(windowRates(win, sliceSeconds));
        double rate = c.reference ? rawMedian
                                  : normalizedThroughput(
                                        win, referenceFor(c.workers),
                                        c.workers);
        std::printf(
            "# %-24s %12llu %12llu %12.0f %12.0f %9.3f %9.3f %10llu "
            "%8.4f %8.4f %8.2f %s%s\n",
            c.label().c_str(),
            static_cast<unsigned long long>(c.total(&WorkerState::attempted)),
            static_cast<unsigned long long>(c.total(&WorkerState::failed) +
                                            c.total(&WorkerState::wrong)),
            rate, rawMedian, lat.percentileNs(50) / 1e3,
            lat.percentileNs(99) / 1e3,
            static_cast<unsigned long long>(lat.count()),
            s.conflictAbortsPerOp(), 100.0 * s.slowPathRatio(),
            ratioOf(s.get(rhtm::Counter::kSlowPathReads) +
                        s.get(rhtm::Counter::kSlowPathWrites),
                    s.operations()),
            c.verified ? "ok" : "FAIL ", c.why.c_str());
    }

    MetricList metrics;
    if (!args.trace) {
        std::vector<CellView> views4, views1;
        for (size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            if (c.reference)
                continue;
            CellView v{c.algo, c.workers, c.windows(),
                       referenceFor(c.workers), sliceSeconds, &latencies[i]};
            (c.workers == workers ? views4 : views1).push_back(std::move(v));
        }
        metrics = endToEndMetrics(views4, views1, median(setupNormalized));
    } else {
        std::vector<TracedView> traced;
        std::vector<uint64_t> baseWindows;
        std::vector<uint64_t> tracedRhWindows;
        for (const Cell &c : cells) {
            if (c.reference)
                continue;
            if (!c.traced) {
                baseWindows = c.windows();
                continue;
            }
            if (c.algo == AlgoKind::kRhNOrec)
                tracedRhWindows = c.windows();
            traced.push_back(TracedView{c.algo, c.stats, c.layers()});
        }
        double overhead = 1.0 - pairedRatio(tracedRhWindows, baseWindows);
        metrics = perLayerMetrics(args.workload, traced, delayNs, overhead);

        if (!args.outDir.empty()) {
            std::string path = args.outDir + "/spans-" + args.workload +
                               "-seed" + std::to_string(args.seed) +
                               ".jsonl";
            std::ofstream out(path);
            for (const Cell &c : cells)
                for (const auto &w : c.ws)
                    w->layers.writeLog(out, rhtm::algoKindName(c.algo));
        }
    }
    for (const Metric &m : metrics)
        std::printf("%-44s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string result = "{\"correct\": " +
                         std::string(correct ? "true" : "false") +
                         ", \"attempted\": " + std::to_string(attempted) +
                         ", \"failed\": " + std::to_string(failed) +
                         ", \"metrics\": " + metricsJson(metrics) + "}";
    if (!args.outDir.empty()) {
        std::string path = args.outDir + "/result-" + args.workload +
                           "-seed" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
        std::ofstream out(path);
        out << "{\"workload\": " << jsonString(args.workload)
            << ", \"seed\": " << args.seed << ", \"nproc\": " << nproc
            << ", \"workers\": " << workers
            << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
            << ", \"commit\": " << jsonString(args.commit)
            << ", \"alu_mips\": [" << jsonNumber(aluBefore) << ", "
            << jsonNumber(aluAfter) << "]"
            << ", \"simdelay64_ns\": " << jsonNumber(delayNs)
            << ", \"slice_s\": " << jsonNumber(sliceSeconds)
            << ", \"cells\": [";
        for (size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            const Recorder &lat = latencies[i];
            out << (i ? ", " : "") << "{\"cell\": " << jsonString(c.label())
                << ", \"attempted\": " << c.total(&WorkerState::attempted)
                << ", \"committed\": " << c.total(&WorkerState::committed)
                << ", \"p50_us\": " << jsonNumber(lat.percentileNs(50) / 1e3)
                << ", \"p99_us\": " << jsonNumber(lat.percentileNs(99) / 1e3)
                << ", \"samples\": " << lat.count()
                << ", \"verified\": " << (c.verified ? "true" : "false")
                << ", \"slice_ops\": [";
            std::vector<uint64_t> win = c.windows();
            for (size_t k = 0; k < win.size(); ++k)
                out << (k ? ", " : "") << win[k];
            out << "]}";
        }
        out << "], \"result\": " << result << "}\n";
    }
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args = perfbench::parseArgs(argc, argv);
    if (args.listMetrics) {
        for (const std::string &name : perfbench::endToEndNames())
            std::printf("end_to_end %s\n", name.c_str());
        for (const std::string &name : perfbench::perLayerNames())
            std::printf("per_layer %s\n", name.c_str());
        return 0;
    }
    try {
        return perfbench::runBenchmark(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
