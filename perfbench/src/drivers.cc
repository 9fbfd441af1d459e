#include "perfbench/src/drivers.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/check/history.h"
#include "src/store/sharded_store.h"
#include "src/structures/tx_rbtree.h"
#include "src/util/zipf.h"
#include "src/workloads/intruder.h"

namespace perfbench
{

using rhtm::AlgoKind;
using rhtm::Rng;
using rhtm::StatsSummary;
using rhtm::ThreadCtx;
using rhtm::TmRuntime;
using rhtm::Txn;
using rhtm::TxnOptions;
using rhtm::TxnOutcome;

rhtm::RuntimeConfig
benchRuntimeConfig(uint64_t seed)
{
    // The figure harness's defaults (bench/harness.cc): the
    // HyperThreading capacity model and interrupt-style HTM aborts;
    // stmAccessPenalty and the commit-path fronts keep the library
    // defaults.
    rhtm::RuntimeConfig rc;
    rc.htm.scaledThreadsFrom = 8;
    rc.htm.capacityScale = 2;
    rc.htm.randomAbortProb = 5e-4;
    rc.rngSeed = seed;
    return rc;
}

namespace
{

// ---------------------------------------------------------------------
// rbtree-read: the benchmark drives a TxRbTree itself so it can time
// runWith and the transaction body separately.

constexpr uint64_t kRbNodes = 10000;
constexpr uint64_t kRbKeyRange = 20000;
constexpr unsigned kRbMutationPct = 4; // Half put, half remove.

class RbTreeDriver final : public Driver
{
  public:
    RbTreeDriver(AlgoKind algo, uint64_t seed) : algo_(algo), seed_(seed)
    {}

    ~RbTreeDriver() override
    {
        if (rt_ != nullptr)
            tree_.clearUnsync(setupCtx_->mem());
    }

    void
    setup() override
    {
        rt_ = std::make_unique<TmRuntime>(algo_, benchRuntimeConfig(seed_));
        setupCtx_ = &rt_->registerThread();
        // kRbNodes distinct keys drawn uniformly from the key range.
        std::vector<int64_t> keys(kRbKeyRange);
        for (uint64_t k = 0; k < kRbKeyRange; ++k)
            keys[k] = static_cast<int64_t>(k);
        Rng rng(seed_ * 0x9e3779b97f4a7c15ull + 11);
        for (uint64_t i = 0; i < kRbNodes; ++i)
            std::swap(keys[i], keys[i + rng.nextBounded(kRbKeyRange - i)]);
        for (uint64_t i = 0; i < kRbNodes; ++i) {
            int64_t k = keys[i];
            rt_->run(*setupCtx_, [&](Txn &tx) { tree_.put(tx, k, k); });
        }
    }

    void
    addWorkers(unsigned n) override
    {
        for (unsigned w = 0; w < n; ++w)
            ctxs_.push_back(&rt_->registerThread());
    }

    OpResult
    op(unsigned w, Rng &rng, OpTrace *trace) override
    {
        int64_t key = static_cast<int64_t>(rng.nextBounded(kRbKeyRange));
        unsigned draw = static_cast<unsigned>(rng.nextBounded(100));
        unsigned kind = draw >= kRbMutationPct ? kRbGet
                        : draw < kRbMutationPct / 2 ? kRbPut
                                                    : kRbRemove;
        TxnOptions opts;
        opts.allowShed = false;
        opts.hint = kind == kRbGet ? rhtm::TxnHint::kReadOnly
                                   : rhtm::TxnHint::kNone;
        if (trace != nullptr)
            trace->setKind(kind);
        ScopedSpan opSpan(trace, SpanName::kOp, -1);
        ScopedSpan runSpan(trace, SpanName::kApiRunWith, opSpan.index());
        const int parent = runSpan.index();
        TxnOutcome out =
            rt_->runWith(*ctxs_[w], opts, [&](Txn &tx) {
                ScopedSpan body(trace, SpanName::kApiBody, parent);
                int64_t v = 0;
                switch (kind) {
                  case kRbGet:
                    (void)tree_.get(tx, key, v);
                    break;
                  case kRbPut:
                    (void)tree_.put(tx, key, key);
                    break;
                  default:
                    (void)tree_.remove(tx, key);
                    break;
                }
            });
        return out == TxnOutcome::kCommitted ? OpResult::kCommitted
                                             : OpResult::kFailed;
    }

    bool
    verify(std::string *why) override
    {
        return tree_.validateStructure(why);
    }

    StatsSummary stats() const override { return rt_->stats(); }
    void resetStats() override { rt_->resetStats(); }

  private:
    AlgoKind algo_;
    uint64_t seed_;
    std::unique_ptr<TmRuntime> rt_;
    ThreadCtx *setupCtx_ = nullptr;
    std::vector<ThreadCtx *> ctxs_;
    rhtm::TxRbTree tree_;
};

// ---------------------------------------------------------------------
// intruder: the STAMP kernel through Workload::runOp.

class IntruderDriver final : public Driver
{
  public:
    IntruderDriver(AlgoKind algo, uint64_t seed) : algo_(algo), seed_(seed)
    {}

    void
    setup() override
    {
        rt_ = std::make_unique<TmRuntime>(algo_, benchRuntimeConfig(seed_));
        ThreadCtx &ctx = rt_->registerThread();
        rhtm::IntruderParams params;
        params.flows = 4096;
        wl_ = std::make_unique<rhtm::IntruderWorkload>(params);
        wl_->setup(*rt_, ctx);
    }

    void
    addWorkers(unsigned n) override
    {
        for (unsigned w = 0; w < n; ++w)
            ctxs_.push_back(&rt_->registerThread());
    }

    OpResult
    op(unsigned w, Rng &rng, OpTrace *trace) override
    {
        ScopedSpan opSpan(trace, SpanName::kOp, -1);
        ScopedSpan runOp(trace, SpanName::kWorkloadsRunOp, opSpan.index());
        wl_->runOp(*rt_, *ctxs_[w], rng);
        return OpResult::kCommitted;
    }

    bool verify(std::string *why) override { return wl_->verify(*rt_, why); }

    StatsSummary stats() const override { return rt_->stats(); }
    void resetStats() override { rt_->resetStats(); }

  private:
    AlgoKind algo_;
    uint64_t seed_;
    // The workload's structures live in the runtime's heap: declared
    // after rt_ so they are destroyed first.
    std::unique_ptr<TmRuntime> rt_;
    std::unique_ptr<rhtm::IntruderWorkload> wl_;
    std::vector<ThreadCtx *> ctxs_;
};

// ---------------------------------------------------------------------
// store-oltp: a 4-shard ShardedStore under the bench_store OLTP mix.

constexpr unsigned kStoreShards = 4;
constexpr uint64_t kStoreKeys = 8192;
constexpr double kStoreZipf = 0.8;
constexpr uint64_t kStoreSeedValue = 1000;
constexpr unsigned kPctGet = 50;
constexpr unsigned kPctPut = 75;  // 25 % puts.
constexpr unsigned kPctScan = 85; // 10 % scans; 15 % 3-key RMWs.
constexpr unsigned kRmwKeys = 3;
constexpr uint64_t kScanWidth = 64;
constexpr size_t kScanLimit = 32;
constexpr auto kStoreDeadline = std::chrono::milliseconds(100);

/** StoreObserver feeding the strict-serializability checker. */
class HistoryObserver final : public rhtm::StoreObserver
{
  public:
    void
    onTxnBegin(unsigned worker) override
    {
        std::lock_guard<std::mutex> guard(lock_);
        history_.push(worker, rhtm::check::HistKind::kBegin);
    }

    void
    onTxnCommit(const rhtm::StoreOpRecord &rec) override
    {
        using rhtm::check::HistKind;
        std::lock_guard<std::mutex> guard(lock_);
        history_.push(rec.worker, HistKind::kAttempt);
        for (const auto &[key, value] : rec.reads)
            history_.push(rec.worker, HistKind::kRead,
                          static_cast<unsigned>(key), value);
        for (const auto &[key, value] : rec.writes)
            history_.push(rec.worker, HistKind::kWrite,
                          static_cast<unsigned>(key), value);
        history_.push(rec.worker, HistKind::kCommit);
    }

    const rhtm::check::History &history() const { return history_; }

  private:
    std::mutex lock_;
    rhtm::check::History history_;
};

rhtm::StoreConfig
storeConfig(AlgoKind algo, uint64_t seed)
{
    rhtm::StoreConfig sc;
    sc.shards = kStoreShards;
    sc.kind = algo;
    sc.runtime = benchRuntimeConfig(seed);
    sc.runtime.admission.enabled = false;
    return sc;
}

class StoreDriver final : public Driver
{
  public:
    StoreDriver(AlgoKind algo, uint64_t seed) : algo_(algo), seed_(seed) {}

    void
    setup() override
    {
        store_ = std::make_unique<rhtm::ShardedStore>(
            storeConfig(algo_, seed_));
        rhtm::StoreWorker &seeder = store_->registerWorker();
        store_->seed(seeder, kStoreKeys, kStoreSeedValue);
    }

    void
    addWorkers(unsigned n) override
    {
        for (unsigned w = 0; w < n; ++w) {
            uint64_t zipfSeed = seed_ * 1000003 + w * 7919 + 1;
            workers_.push_back(std::make_unique<Worker>(
                store_->registerWorker(), zipfSeed));
        }
    }

    OpResult
    op(unsigned w, Rng &rng, OpTrace *trace) override
    {
        Worker &me = *workers_[w];
        rhtm::StoreWorker &sw = me.store;
        rhtm::ZipfGenerator &zipf = me.zipf;
        rhtm::StoreOpts opts;
        opts.deadline = kStoreDeadline;
        unsigned draw = static_cast<unsigned>(rng.nextBounded(100));
        uint64_t key = zipf.next();
        ScopedSpan opSpan(trace, SpanName::kOp, -1);
        TxnOutcome out;
        bool correct = true;
        if (draw < kPctGet) {
            ScopedSpan s(trace, SpanName::kStoreGet, opSpan.index());
            uint64_t v = 0;
            bool found = false;
            out = store_->get(sw, key, v, found, opts);
            // Every key below kStoreKeys was seeded and none is deleted.
            correct = found;
        } else if (draw < kPctPut) {
            ScopedSpan s(trace, SpanName::kStorePut, opSpan.index());
            out = store_->put(sw, key, rng.next() >> 1, opts);
        } else if (draw < kPctScan) {
            ScopedSpan s(trace, SpanName::kStoreScan, opSpan.index());
            unsigned shard =
                static_cast<unsigned>(rng.nextBounded(kStoreShards));
            uint64_t hi = std::min(key + kScanWidth - 1, kStoreKeys - 1);
            out = store_->scan(sw, shard, key, hi, kScanLimit, me.scan,
                               opts);
            correct = scanOk(me.scan, shard, key, hi);
        } else {
            ScopedSpan s(trace, SpanName::kStoreRmw, opSpan.index());
            for (uint64_t &k : me.rmwKeys)
                k = zipf.next();
            out = store_->multiRmw(sw, me.rmwKeys, 1, opts);
        }
        if (out != TxnOutcome::kCommitted)
            return OpResult::kFailed;
        return correct ? OpResult::kCommitted : OpResult::kWrong;
    }

    bool
    verify(std::string *why) override
    {
        (void)why;
        return true; // Outputs are checked per operation.
    }

    bool
    checkLeg(uint64_t &attempted, std::string *why) override
    {
        // A recorded leg on a fresh store, cut into short segments that
        // are quiescent between them. The checker searches orders of
        // concurrent transactions and its time grows exponentially with
        // how many overlap: three workers recording 40 ops each stalled
        // it for over 20 s in a few seeds out of a hundred. Two workers
        // and 10 ops per segment bound the search, and since each
        // segment starts from a snapshot of every key, strictly
        // serializable segments make the whole leg strictly
        // serializable. 96 keys keep the checker's variable ids small.
        constexpr uint64_t kKeys = 96;
        constexpr unsigned kThreads = 2;
        constexpr unsigned kSegments = 12;
        constexpr uint64_t kOpsPerSegment = 10;
        rhtm::ShardedStore store(storeConfig(algo_, seed_));
        rhtm::StoreWorker &seeder = store.registerWorker();
        store.seed(seeder, kKeys, kStoreSeedValue);
        std::vector<rhtm::StoreWorker *> workers;
        std::vector<Rng> rngs;
        std::vector<rhtm::ZipfGenerator> zipfs;
        for (unsigned t = 0; t < kThreads; ++t) {
            workers.push_back(&store.registerWorker());
            rngs.emplace_back(seed_ * 7907 + t * 131 + 1);
            zipfs.emplace_back(kKeys, 0.6, seed_ * 17 + t + 1);
        }
        std::vector<uint64_t> initial(kKeys, kStoreSeedValue);
        for (unsigned seg = 0; seg < kSegments; ++seg) {
            HistoryObserver observer;
            store.setObserver(&observer);
            std::vector<std::thread> pool;
            for (unsigned t = 0; t < kThreads; ++t) {
                pool.emplace_back([&, t] {
                    Rng &rng = rngs[t];
                    rhtm::ZipfGenerator &zipf = zipfs[t];
                    std::vector<std::pair<uint64_t, uint64_t>> out;
                    std::vector<uint64_t> keys(kRmwKeys);
                    for (uint64_t i = 0; i < kOpsPerSegment; ++i) {
                        unsigned draw =
                            static_cast<unsigned>(rng.nextBounded(100));
                        uint64_t key = zipf.next();
                        if (draw < 40) {
                            uint64_t v = 0;
                            bool found = false;
                            store.get(*workers[t], key, v, found);
                        } else if (draw < 60) {
                            store.put(*workers[t], key, rng.next() >> 1);
                        } else if (draw < 70) {
                            unsigned shard = static_cast<unsigned>(
                                rng.nextBounded(kStoreShards));
                            store.scan(*workers[t], shard, key,
                                       std::min(key + 15, kKeys - 1), 8,
                                       out);
                        } else {
                            for (uint64_t &k : keys)
                                k = zipf.next();
                            store.multiRmw(*workers[t], keys, 1);
                        }
                    }
                });
            }
            for (std::thread &th : pool)
                th.join();
            store.setObserver(nullptr);
            attempted += kThreads * kOpsPerSegment;
            rhtm::check::CheckResult result =
                rhtm::check::checkHistory(observer.history(), initial);
            if (!result.ok()) {
                if (why != nullptr)
                    *why = "history check, segment " + std::to_string(seg) +
                           ": " +
                           rhtm::check::checkVerdictName(result.verdict) +
                           ": " + result.detail;
                return false;
            }
            for (uint64_t k = 0; k < kKeys; ++k) {
                bool found = false;
                uint64_t v = 0;
                store.get(seeder, k, v, found);
                initial[k] = found ? v : 0;
            }
        }
        return true;
    }

    StatsSummary stats() const override { return store_->stats(); }
    void resetStats() override { store_->resetStats(); }

  private:
    /** Scan output is ascending, inside [lo, hi], on @p shard, capped. */
    bool
    scanOk(const std::vector<std::pair<uint64_t, uint64_t>> &out,
           unsigned shard, uint64_t lo, uint64_t hi) const
    {
        if (out.size() > kScanLimit)
            return false;
        for (size_t i = 0; i < out.size(); ++i) {
            uint64_t k = out[i].first;
            if (k < lo || k > hi || store_->shardOf(k) != shard)
                return false;
            if (i > 0 && out[i - 1].first >= k)
                return false;
        }
        return true;
    }

    /** One worker's store client, key generator and scratch. */
    struct Worker
    {
        Worker(rhtm::StoreWorker &sw, uint64_t zipfSeed)
            : store(sw), zipf(kStoreKeys, kStoreZipf, zipfSeed),
              rmwKeys(kRmwKeys)
        {}

        rhtm::StoreWorker &store;
        rhtm::ZipfGenerator zipf;
        std::vector<std::pair<uint64_t, uint64_t>> scan;
        std::vector<uint64_t> rmwKeys;
    };

    AlgoKind algo_;
    uint64_t seed_;
    std::unique_ptr<rhtm::ShardedStore> store_;
    std::vector<std::unique_ptr<Worker>> workers_;
};

// ---------------------------------------------------------------------
// Host reference.

class HostReference final : public Driver
{
  public:
    explicit HostReference(uint64_t seed) : seed_(seed) {}

    void setup() override {}

    void
    addWorkers(unsigned n) override
    {
        for (unsigned w = 0; w < n; ++w) {
            Rng rng(seed_ * 31 + w + 1);
            auto &m = maps_.emplace_back();
            while (m.size() < kRbNodes) {
                int64_t k = static_cast<int64_t>(rng.nextBounded(kRbKeyRange));
                m.emplace(k, k);
            }
        }
    }

    OpResult
    op(unsigned w, Rng &rng, OpTrace *trace) override
    {
        (void)trace;
        const std::map<int64_t, int64_t> &m = maps_[w];
        int64_t sum = 0;
        for (int i = 0; i < 4; ++i) {
            auto it = m.find(
                static_cast<int64_t>(rng.nextBounded(kRbKeyRange)));
            if (it != m.end())
                sum += it->second;
        }
        asm volatile("" : : "r"(sum));
        return OpResult::kCommitted;
    }

    bool
    verify(std::string *why) override
    {
        (void)why;
        return true;
    }

    StatsSummary stats() const override { return StatsSummary(); }
    void resetStats() override {}

  private:
    uint64_t seed_;
    std::deque<std::map<int64_t, int64_t>> maps_;
};

} // namespace

std::unique_ptr<Driver>
makeHostReference(uint64_t seed)
{
    return std::make_unique<HostReference>(seed);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> kNames = {
        "rbtree-read", "intruder", "store-oltp"};
    return kNames;
}

std::unique_ptr<Driver>
makeDriver(const std::string &workload, AlgoKind algo, uint64_t seed)
{
    if (workload == "rbtree-read")
        return std::make_unique<RbTreeDriver>(algo, seed);
    if (workload == "intruder")
        return std::make_unique<IntruderDriver>(algo, seed);
    if (workload == "store-oltp")
        return std::make_unique<StoreDriver>(algo, seed);
    return nullptr;
}

} // namespace perfbench
