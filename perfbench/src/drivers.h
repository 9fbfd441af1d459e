/**
 * @file
 * The three benchmark workloads, each driving one algorithm's
 * instance through the library's public surface only.
 */

#ifndef PERFBENCH_DRIVERS_H
#define PERFBENCH_DRIVERS_H

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/api/runtime.h"
#include "src/util/rng.h"

namespace perfbench
{

/** How one closed-loop operation ended. */
enum class OpResult
{
    kCommitted, //!< Committed with a correct output.
    kFailed,    //!< Deadline exceeded or shed.
    kWrong,     //!< Committed, but the output failed its check.
};

/** Operation kinds of rbtree-read, used to tag body spans. */
enum RbOpKind : unsigned
{
    kRbGet = 0,
    kRbPut,
    kRbRemove,
    kNumRbKinds
};

/** The runtime configuration every cell uses. */
rhtm::RuntimeConfig benchRuntimeConfig(uint64_t seed);

/** One workload instance running one algorithm. */
class Driver
{
  public:
    virtual ~Driver() = default;

    /** Construct runtimes or stores and populate the initial data. */
    virtual void setup() = 0;

    /** Register @p n worker contexts (after setup, untimed). */
    virtual void addWorkers(unsigned n) = 0;

    /** One operation by worker @p w; @p trace is null when untraced. */
    virtual OpResult op(unsigned w, rhtm::Rng &rng, OpTrace *trace) = 0;

    /** Quiescent output check after the timed rounds. */
    virtual bool verify(std::string *why) = 0;

    /**
     * Extra checked operations run outside the timed rounds (the
     * store's serializability leg); adds to @p attempted and returns
     * false on a failed check.
     */
    virtual bool
    checkLeg(uint64_t &attempted, std::string *why)
    {
        (void)attempted;
        (void)why;
        return true;
    }

    virtual rhtm::StatsSummary stats() const = 0;
    virtual void resetStats() = 0;
};

/** Names accepted by makeDriver, in presentation order. */
const std::vector<std::string> &workloadNames();

/**
 * A library-free host reference: lookups in a per-worker std::map of
 * the rbtree-read size. Its rate tracks how fast the host runs
 * pointer-chasing code at the moment, independent of the library.
 */
std::unique_ptr<Driver> makeHostReference(uint64_t seed);

/** A driver for @p workload, or nullptr for an unknown name. */
std::unique_ptr<Driver> makeDriver(const std::string &workload,
                                   rhtm::AlgoKind algo, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_DRIVERS_H
