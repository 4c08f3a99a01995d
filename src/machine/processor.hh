/**
 * @file
 * The Sparcle-like processor model. Each processor runs one simulated
 * thread (a C++20 coroutine) and takes software-extension traps from
 * its node's home controller. Handlers preempt user execution and
 * steal its cycles, exactly the effect the paper measures.
 *
 * Execution model:
 *  - work(n): n cycles of compute. Instruction fetches for the
 *    thread's current footprint are charged at the start of each work
 *    segment and may thrash with data in the combined direct-mapped
 *    cache (the Figure 3 effect). Preemptible by traps.
 *  - memory operations: issued to the cache controller; the coroutine
 *    suspends until the coherence protocol delivers the result.
 *  - traps: queued TrapItems run to completion, one at a time; the
 *    livelock watchdog (Section 4.1) throttles them when user code is
 *    starved (needed by the ACK protocols).
 */

#ifndef SWEX_MACHINE_PROCESSOR_HH
#define SWEX_MACHINE_PROCESSOR_HH

#include <coroutine>
#include <deque>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "core/node_services.hh"
#include "sim/event.hh"
#include "sim/task.hh"

namespace swex
{

class Node;

/** Kinds of processor memory operations. */
enum class MemOpType : std::uint8_t
{
    Load,
    Store,
    FetchAdd,   ///< atomic fetch-and-add, returns old value
    Swap,       ///< atomic swap, returns old value
};

/** Processor timing/behavior knobs. */
struct ProcessorConfig
{
    bool perfectIfetch = false;    ///< one-cycle ifetch, no cache use
    bool watchdog = false;         ///< livelock watchdog enabled
    Cycles watchdogWindow = 1000;  ///< user-only window when starved
    unsigned watchdogThreshold = 8;///< handlers in a row to trigger
};

class Processor
{
  public:
    Processor(Node &node, const ProcessorConfig &cfg,
              stats::Group *stats_parent);

    // --------------------------------------------------------------
    // Thread control (driven by Machine)
    // --------------------------------------------------------------

    /** Install and start the thread's main coroutine. */
    void runThread(Task<void> t);

    bool threadDone() const { return !mainTask.valid() || finished; }

    /**
     * Set the instruction footprint (cache blocks) fetched during
     * subsequent work() segments. Apps change this per program phase.
     */
    void setFootprint(std::vector<Addr> blocks);

    // --------------------------------------------------------------
    // Awaitables (used through the Mem API)
    // --------------------------------------------------------------

    struct WorkAwaitable
    {
        Processor &proc;
        Cycles n;

        bool await_ready() const noexcept { return n == 0; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            proc.startWork(n, h);
        }

        void await_resume() const noexcept {}
    };

    struct MemAwaitable
    {
        Processor &proc;
        MemOpType type;
        Addr addr;
        Word operand;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            proc.startMemOp(type, addr, operand, h);
        }

        Word await_resume() const noexcept { return proc.lastValue; }
    };

    WorkAwaitable work(Cycles n) { return {*this, n}; }

    MemAwaitable
    memOp(MemOpType t, Addr a, Word operand)
    {
        return {*this, t, a, operand};
    }

    // --------------------------------------------------------------
    // Called by the node / controllers
    // --------------------------------------------------------------

    /** Queue a software-extension trap (from the home controller). */
    void raiseTrap(const TrapItem &item);

    /** The cache controller finished the outstanding memory op. */
    void completeMemOp(Word value);

    /**
     * Resume a suspended user coroutine after @p delay cycles,
     * respecting handler preemption (used by the machine's fast
     * barrier).
     */
    void
    resumeAfter(std::coroutine_handle<> h, Cycles delay)
    {
        startWork(delay ? delay : 1, h);
    }

    Node &node() { return _node; }

    // --------------------------------------------------------------
    // Statistics
    // --------------------------------------------------------------
    stats::Group statsGroup;
    stats::Scalar userCycles;       ///< cycles executing user compute
    stats::Scalar handlerCycles;    ///< cycles stolen by handlers
    stats::Scalar trapsRun;
    stats::Scalar memOps;
    stats::Scalar ifetchPenalty;    ///< cycles lost to ifetch misses
    stats::Scalar watchdogFirings;
    stats::Scalar memStallCycles;   ///< cycles blocked on memory ops

  private:
    void startWork(Cycles n, std::coroutine_handle<> h);
    void startMemOp(MemOpType t, Addr a, Word operand,
                    std::coroutine_handle<> h);
    void startNextHandler();
    void tryRunUser();
    void onThreadStart();
    void onWorkDone();
    void onWatchdogExpire();
    void onHandlerDone();
    void preemptWork();
    void resumeUser(std::coroutine_handle<> h);
    Cycles instrFetchPenalty();

    Node &_node;
    ProcessorConfig cfg;

    Task<void> mainTask;
    bool finished = false;

    // Trap/handler machinery
    std::deque<TrapItem> trapQueue;
    bool handlerActive = false;
    bool watchdogActive = false;
    unsigned handlersSinceUser = 0;

    // User compute state
    std::coroutine_handle<> workCont = nullptr;
    Cycles workRemaining = 0;
    bool userComputing = false;
    Tick workStart = 0;

    // Deferred memory-op resume (completion during a handler)
    std::coroutine_handle<> memCont = nullptr;
    bool memResumeReady = false;
    Tick memIssueTick = 0;

    // Instruction stream
    std::vector<Addr> footprint;

    // Statically-owned events: scheduling them never allocates, and
    // preemption cancels via deschedule instead of the old
    // epoch-guarded stale firings.
    MemberEvent<&Processor::onThreadStart> startEvent{
        *this, EventPrio::Processor};
    MemberEvent<&Processor::onWorkDone> workDoneEvent{
        *this, EventPrio::Processor};
    MemberEvent<&Processor::onWatchdogExpire> watchdogEvent{
        *this, EventPrio::Processor};
    MemberEvent<&Processor::onHandlerDone> handlerDoneEvent{
        *this, EventPrio::Processor};

  public:
    /** Result slot for the most recent memory operation. */
    Word lastValue = 0;
};

} // namespace swex

#endif // SWEX_MACHINE_PROCESSOR_HH
