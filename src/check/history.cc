#include "src/check/history.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_set>

namespace rhtm::check
{

std::string
History::format() const
{
    std::ostringstream out;
    for (const HistEvent &e : events_) {
        out << 't' << unsigned(e.tid) << ' ';
        switch (e.kind) {
          case HistKind::kBegin: out << "begin"; break;
          case HistKind::kAttempt: out << "attempt"; break;
          case HistKind::kRead:
            out << "read v" << e.var << '=' << e.value;
            break;
          case HistKind::kWrite:
            out << "write v" << e.var << '=' << e.value;
            break;
          case HistKind::kCommit: out << "commit"; break;
        }
        out << '\n';
    }
    return out.str();
}

const char *
checkVerdictName(CheckVerdict verdict)
{
    switch (verdict) {
      case CheckVerdict::kOk: return "ok";
      case CheckVerdict::kNotSerializable: return "not-serializable";
      case CheckVerdict::kZombieRead: return "zombie-read";
      case CheckVerdict::kMalformed: return "malformed";
    }
    return "unknown";
}

namespace
{

/** One read or write inside an attempt. */
struct AccessOp
{
    bool isWrite;
    unsigned var;
    uint64_t value;
};

/** One attempt (body execution) of a transaction. */
struct Attempt
{
    std::vector<AccessOp> ops;
    size_t startIndex; //!< Event index of its kAttempt marker.
};

/** One transaction: a kBegin..kCommit span with >= 1 attempts. */
struct TxnRec
{
    unsigned tid;
    size_t beginIndex;
    size_t commitIndex = SIZE_MAX; //!< SIZE_MAX while uncommitted.
    std::vector<Attempt> attempts;

    bool committed() const { return commitIndex != SIZE_MAX; }
};

struct ParsedHistory
{
    std::vector<TxnRec> txns; //!< All transactions, in begin order.
    std::string error;        //!< Nonempty when malformed.
};

ParsedHistory
parseHistory(const History &history)
{
    ParsedHistory out;
    // Per-tid index of the open (begun, uncommitted) transaction.
    std::map<unsigned, size_t> open;
    const std::vector<HistEvent> &ev = history.events();
    for (size_t i = 0; i < ev.size(); ++i) {
        const HistEvent &e = ev[i];
        const unsigned tid = e.tid;
        auto it = open.find(tid);
        switch (e.kind) {
          case HistKind::kBegin:
            if (it != open.end()) {
                out.error = "t" + std::to_string(tid) +
                            " begin while a txn is open";
                return out;
            }
            open[tid] = out.txns.size();
            out.txns.push_back(TxnRec{tid, i, SIZE_MAX, {}});
            break;
          case HistKind::kAttempt:
            if (it == open.end()) {
                out.error = "t" + std::to_string(tid) +
                            " attempt outside a txn";
                return out;
            }
            out.txns[it->second].attempts.push_back(Attempt{{}, i});
            break;
          case HistKind::kRead:
          case HistKind::kWrite: {
            if (it == open.end() ||
                out.txns[it->second].attempts.empty()) {
                out.error = "t" + std::to_string(tid) +
                            " access outside an attempt";
                return out;
            }
            Attempt &a = out.txns[it->second].attempts.back();
            a.ops.push_back(AccessOp{e.kind == HistKind::kWrite,
                                     e.var, e.value});
            break;
          }
          case HistKind::kCommit:
            if (it == open.end() ||
                out.txns[it->second].attempts.empty()) {
                out.error = "t" + std::to_string(tid) +
                            " commit without an attempt";
                return out;
            }
            out.txns[it->second].commitIndex = i;
            open.erase(it);
            break;
        }
    }
    return out;
}

/** Variable valuation, sparse over var ids. */
class VarState
{
  public:
    explicit VarState(const std::vector<uint64_t> &init) : init_(init) {}

    uint64_t
    get(unsigned var) const
    {
        auto it = vals_.find(var);
        if (it != vals_.end())
            return it->second;
        return var < init_.size() ? init_[var] : 0;
    }

    void set(unsigned var, uint64_t value) { vals_[var] = value; }

  private:
    const std::vector<uint64_t> &init_;
    std::map<unsigned, uint64_t> vals_;
};

/**
 * Would @p attempt's reads replay against @p state? Own writes shadow:
 * a read after this attempt's own write to the var must (and does)
 * observe the written value, not the pre-state.
 */
bool
attemptReadsValid(const Attempt &attempt, const VarState &state)
{
    std::map<unsigned, uint64_t> ownWrites;
    for (const AccessOp &op : attempt.ops) {
        if (op.isWrite) {
            ownWrites[op.var] = op.value;
            continue;
        }
        auto it = ownWrites.find(op.var);
        uint64_t expect =
            it != ownWrites.end() ? it->second : state.get(op.var);
        if (op.value != expect)
            return false;
    }
    return true;
}

/** splitmix64 finalizer: a cheap, well-mixed 64-bit hash. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Hash of one (var, value) binding; a state hashes to their XOR. */
uint64_t
bindingHash(unsigned var, uint64_t value)
{
    return mix64(mix64(var) ^ value);
}

/**
 * Apply @p attempt's final writes (last write per var wins), keeping
 * @p stateHash in step with @p state. The hash is the XOR, over every
 * var, of bindingHash(var, current) ^ bindingHash(var, initial), so
 * equal states hash equal whichever order produced them.
 */
void
applyAttempt(const Attempt &attempt, VarState &state, uint64_t &stateHash)
{
    for (const AccessOp &op : attempt.ops) {
        if (!op.isWrite)
            continue;
        stateHash ^= bindingHash(op.var, state.get(op.var)) ^
                     bindingHash(op.var, op.value);
        state.set(op.var, op.value);
    }
}

/**
 * Enumerates every valid serialization of the committed transactions
 * via DFS with real-time-edge pruning. The visitor is called once per
 * complete valid order with the per-step var states; returning false
 * stops the enumeration early.
 */
class SerializationSearch
{
  public:
    SerializationSearch(const std::vector<const TxnRec *> &committed,
                        const std::vector<uint64_t> &init)
        : committed_(committed), init_(init)
    {}

    /**
     * @param visit Called with (order as indices into committed_,
     *        states where states[k] is the valuation AFTER the first k
     *        txns, so states.size() == order.size() + 1). Return false
     *        to stop.
     * @return false when the visitor stopped the walk early.
     */
    template <typename Visitor>
    bool
    enumerate(Visitor &&visit)
    {
        scheduled_.assign(committed_.size(), false);
        order_.clear();
        states_.clear();
        states_.emplace_back(init_);
        found_ = 0;
        setHash_ = 0;
        stateHash_ = 0;
        dead_.clear();
        return dfs(visit);
    }

    /** Valid serializations seen by the last enumerate() call. */
    size_t found() const { return found_; }

  private:
    template <typename Visitor>
    bool
    dfs(Visitor &&visit)
    {
        if (order_.size() == committed_.size()) {
            ++found_;
            return visit(order_, states_);
        }
        // Which txns remain and what memory holds decide everything
        // below this node, so a (set, state) pair whose subtree held
        // no complete order is dead on every path that reaches it.
        // Without this, an unplaceable txn makes the walk retry every
        // interleaving of the txns around it: exponential.
        const DeadKey key{setHash_, stateHash_};
        if (dead_.count(key) != 0)
            return true;
        const size_t foundBefore = found_;
        for (size_t i = 0; i < committed_.size(); ++i) {
            if (scheduled_[i])
                continue;
            if (!realTimeReady(i))
                continue;
            const TxnRec &t = *committed_[i];
            const Attempt &a = t.attempts.back();
            if (!attemptReadsValid(a, states_.back()))
                continue;
            scheduled_[i] = true;
            order_.push_back(i);
            states_.push_back(states_.back());
            const uint64_t savedStateHash = stateHash_;
            applyAttempt(a, states_.back(), stateHash_);
            setHash_ ^= mix64(i);
            if (!dfs(visit))
                return false;
            setHash_ ^= mix64(i);
            stateHash_ = savedStateHash;
            states_.pop_back();
            order_.pop_back();
            scheduled_[i] = false;
        }
        if (found_ == foundBefore)
            dead_.insert(key);
        return true;
    }

    /** All real-time predecessors of committed_[i] already placed? */
    bool
    realTimeReady(size_t i) const
    {
        const TxnRec &t = *committed_[i];
        for (size_t j = 0; j < committed_.size(); ++j) {
            if (j == i || scheduled_[j])
                continue;
            // Unscheduled j must not be forced before i.
            if (committed_[j]->commitIndex < t.beginIndex)
                return false;
        }
        return true;
    }

    /** A search node: hashes of the placed set and of memory. */
    struct DeadKey
    {
        uint64_t set;
        uint64_t state;

        bool
        operator==(const DeadKey &o) const
        {
            return set == o.set && state == o.state;
        }
    };

    struct DeadKeyHash
    {
        size_t
        operator()(const DeadKey &k) const
        {
            return static_cast<size_t>(k.set ^ mix64(k.state));
        }
    };

    const std::vector<const TxnRec *> &committed_;
    const std::vector<uint64_t> &init_;
    std::vector<bool> scheduled_;
    std::vector<size_t> order_;
    std::vector<VarState> states_;
    size_t found_ = 0;
    uint64_t setHash_ = 0;   //!< XOR of mix64(i) over placed txns.
    uint64_t stateHash_ = 0; //!< See applyAttempt().
    std::unordered_set<DeadKey, DeadKeyHash> dead_;
};

} // namespace

CheckResult
checkHistory(const History &history,
             const std::vector<uint64_t> &initialValues)
{
    CheckResult result;
    ParsedHistory parsed = parseHistory(history);
    if (!parsed.error.empty()) {
        result.verdict = CheckVerdict::kMalformed;
        result.detail = parsed.error;
        return result;
    }

    std::vector<const TxnRec *> committed;
    for (const TxnRec &t : parsed.txns) {
        if (t.committed())
            committed.push_back(&t);
    }

    // Collect every aborted attempt: all but the last attempt of a
    // committed txn, every attempt of an uncommitted one.
    struct AbortedAttempt
    {
        const TxnRec *txn;
        const Attempt *attempt;
        bool explained = false;
    };
    std::vector<AbortedAttempt> aborted;
    for (const TxnRec &t : parsed.txns) {
        size_t n = t.attempts.size();
        size_t abortedCount = t.committed() ? n - 1 : n;
        for (size_t i = 0; i < abortedCount; ++i)
            aborted.push_back(AbortedAttempt{&t, &t.attempts[i]});
    }

    // One pass enumerates serializations, capturing (a) a witness
    // order proving committed serializability and (b) for each aborted
    // attempt whether ANY (serialization, prefix) explains its reads.
    // The prefix is constrained by real time from below only: txns
    // whose commit was logged before the attempt's body started MUST
    // be in the attempt's snapshot. (No constraint from above: a
    // commit logged after the attempt's last event may still have
    // linearized before it -- the logging happens outside run().)
    SerializationSearch search(committed, initialValues);
    size_t unexplained = aborted.size();
    bool haveWitness = false;
    std::vector<unsigned> witness;
    search.enumerate([&](const std::vector<size_t> &order,
                         const std::vector<VarState> &states) {
        if (!haveWitness) {
            haveWitness = true;
            for (size_t idx : order)
                witness.push_back(committed[idx]->tid);
        }
        for (AbortedAttempt &a : aborted) {
            if (a.explained)
                continue;
            // Smallest admissible prefix: every committed txn whose
            // commit event precedes the attempt's start must be in it.
            size_t minPrefix = 0;
            for (size_t k = 0; k < order.size(); ++k) {
                if (committed[order[k]]->commitIndex <
                    a.attempt->startIndex)
                    minPrefix = k + 1;
            }
            for (size_t k = minPrefix; k < states.size(); ++k) {
                if (attemptReadsValid(*a.attempt, states[k])) {
                    a.explained = true;
                    --unexplained;
                    break;
                }
            }
        }
        // Stop as soon as both questions are answered.
        return !(haveWitness && unexplained == 0);
    });

    if (!haveWitness && !committed.empty()) {
        result.verdict = CheckVerdict::kNotSerializable;
        std::ostringstream out;
        out << "no serialization of " << committed.size()
            << " committed txn(s) replays all reads; committed reads:";
        for (const TxnRec *t : committed) {
            for (const AccessOp &op : t->attempts.back().ops) {
                if (!op.isWrite)
                    out << " t" << t->tid << ":v" << op.var << '='
                        << op.value;
            }
        }
        result.detail = out.str();
        return result;
    }
    result.witnessOrder = witness;

    for (const AbortedAttempt &a : aborted) {
        if (a.explained)
            continue;
        result.verdict = CheckVerdict::kZombieRead;
        std::ostringstream out;
        out << "aborted attempt of t" << a.txn->tid
            << " observed a snapshot no serialization prefix "
               "produces; reads:";
        for (const AccessOp &op : a.attempt->ops) {
            if (!op.isWrite)
                out << " v" << op.var << '=' << op.value;
        }
        result.detail = out.str();
        return result;
    }
    return result;
}

} // namespace rhtm::check
