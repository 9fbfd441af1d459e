/**
 * @file
 * Spans recorded around the library's public calls.
 *
 * The benchmark opens a span at each layer boundary it crosses from
 * outside the library: the whole operation, TmRuntime::runWith, each
 * attempt's transaction body, Workload::runOp and the ShardedStore
 * calls. The spans of one operation share an id and live in a
 * per-worker buffer; when the operation ends the benchmark folds them
 * into per-layer recorders and keeps a bounded sample for the span
 * log it writes out when the run ends.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench
{

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

enum class SpanName : uint8_t
{
    kOp = 0,
    kApiRunWith,
    kApiBody,
    kWorkloadsRunOp,
    kStoreGet,
    kStorePut,
    kStoreScan,
    kStoreRmw,
    kCount
};

inline const char *
spanName(SpanName name)
{
    static const char *const kNames[] = {
        "op",         "api.runWith", "api.body",   "workloads.runOp",
        "store.get",  "store.put",   "store.scan", "store.rmw"};
    return kNames[static_cast<unsigned>(name)];
}

struct Span
{
    SpanName name = SpanName::kOp;
    int32_t parent = -1; //!< Index of the parent span; -1 for the root.
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/** The spans of one worker's in-flight operation. */
class OpTrace
{
  public:
    void
    beginOp(uint64_t opId)
    {
        spans_.clear();
        opId_ = opId;
        kind_ = 0;
    }

    int
    open(SpanName name, int parent)
    {
        Span s;
        s.name = name;
        s.parent = parent;
        s.startNs = nowNs();
        spans_.push_back(s);
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int index) { spans_[index].endNs = nowNs(); }

    /** Tag the operation with a workload-defined kind (get/put/...). */
    void setKind(unsigned kind) { kind_ = kind; }

    unsigned kind() const { return kind_; }
    uint64_t opId() const { return opId_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    uint64_t opId_ = 0;
    unsigned kind_ = 0;
};

/** A span open for the lifetime of the guard; a no-op without trace. */
class ScopedSpan
{
  public:
    ScopedSpan(OpTrace *trace, SpanName name, int parent)
        : trace_(trace), index_(trace ? trace->open(name, parent) : -1)
    {}

    ~ScopedSpan()
    {
        if (trace_ != nullptr)
            trace_->close(index_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return index_; }

  private:
    OpTrace *trace_;
    int index_;
};

/**
 * Self time of span @p parent: its duration minus the part of its
 * interval covered by its direct children (overlapping children are
 * counted once; parts outside the parent are ignored).
 */
inline int64_t
selfTimeNs(const std::vector<Span> &spans, int parent)
{
    const Span &p = spans[parent];
    std::vector<std::pair<int64_t, int64_t>> kids;
    for (const Span &s : spans) {
        if (s.parent != parent)
            continue;
        int64_t lo = std::max(s.startNs, p.startNs);
        int64_t hi = std::min(s.endNs, p.endNs);
        if (hi > lo)
            kids.emplace_back(lo, hi);
    }
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t curLo = 0, curHi = 0;
    bool open = false;
    for (const auto &[lo, hi] : kids) {
        if (open && lo <= curHi) {
            curHi = std::max(curHi, hi);
            continue;
        }
        if (open)
            covered += curHi - curLo;
        curLo = lo;
        curHi = hi;
        open = true;
    }
    if (open)
        covered += curHi - curLo;
    return (p.endNs - p.startNs) - covered;
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
