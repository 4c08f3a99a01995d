/**
 * @file
 * Discrete-event simulation kernel. NWO stepped every Alewife component
 * on every cycle; we use an event queue at cycle resolution with fully
 * deterministic ordering (tick, priority, insertion sequence), which is
 * behaviorally equivalent for our component models and much faster.
 *
 * The queue is a two-level scheduler tuned for the simulator's event
 * mix:
 *  - a fixed-size timing wheel (power-of-two buckets, one cache line
 *    per bucket) absorbs the short delays -- 1-20 cycle network,
 *    controller, and DRAM latencies plus handler occupancies -- that
 *    dominate the mix, giving O(1) schedule/cancel/pop;
 *  - a spill min-heap holds far-future events (barrier timeouts,
 *    watchdog windows, long compute segments) beyond the wheel
 *    horizon.
 * Events never migrate between the levels: the dispatcher compares
 * the earliest candidate of each level under the global deterministic
 * order (tick, priority, sequence), so an event executes at exactly
 * the same point regardless of which side it waited on.
 */

#ifndef SWEX_SIM_EVENT_QUEUE_HH
#define SWEX_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "sim/event.hh"

namespace swex
{

/**
 * The central event queue. All simulated components schedule events
 * here; the queue is strictly single-threaded and deterministic.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** log2 of the wheel span; delays below 2^10 cycles stay O(1). */
    static constexpr unsigned wheelBits = 10;
    static constexpr unsigned wheelSize = 1u << wheelBits;
    static constexpr unsigned wheelMask = wheelSize - 1;

    // Defined out of line: members reference the incomplete
    // PooledLambda type.
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in cycles. */
    Tick curTick() const { return _curTick; }

    // --------------------------------------------------------------
    // Intrusive interface (the allocation-free hot path)
    // --------------------------------------------------------------

    /** Schedule @p e at absolute time @p when (>= curTick). */
    void schedule(Event &e, Tick when);

    /** Schedule @p e @p delay cycles from now. */
    void scheduleIn(Event &e, Cycles delay)
    {
        schedule(e, _curTick + delay);
    }

    /** Remove a pending event; it will not execute. */
    void deschedule(Event &e);

    /** Move a (possibly pending) event to a new time. */
    void
    reschedule(Event &e, Tick when)
    {
        if (e.scheduled())
            deschedule(e);
        schedule(e, when);
    }

    // --------------------------------------------------------------
    // Callback shim (tests, benches, cold paths). The event objects
    // are drawn from an internal free list, so steady-state use does
    // not allocate either; only the std::function capture may.
    // --------------------------------------------------------------

    /** Schedule @p cb at absolute time @p when (>= curTick). */
    void schedule(Tick when, Callback cb,
                  EventPrio prio = EventPrio::Default);

    /** Schedule @p cb @p delay cycles from now. */
    void
    scheduleIn(Cycles delay, Callback cb,
               EventPrio prio = EventPrio::Default)
    {
        schedule(_curTick + delay, std::move(cb), prio);
    }

    // --------------------------------------------------------------
    // Execution
    // --------------------------------------------------------------

    /** True when no events are pending. */
    bool empty() const { return _numPending == 0; }

    /** Number of pending events. */
    std::size_t size() const { return _numPending; }

    /** Execute the single next event; returns false if queue empty. */
    bool runOne();

    /**
     * Run until the queue drains or curTick would exceed @p limit.
     * @return the final value of curTick.
     */
    Tick run(Tick limit = tickNever);

    /** Total number of events executed over the queue's lifetime. */
    std::uint64_t numExecuted() const { return _numExecuted; }

  private:
    /**
     * One wheel slot: a FIFO chain per priority. All events pending
     * in a bucket share the same tick (any pending event satisfies
     * curTick <= when < curTick + wheelSize, and exactly one tick in
     * that window maps onto each bucket), so appending at the tail
     * keeps each chain in (prio, seq) pop order for free.
     */
    struct Bucket
    {
        Event *head[numEventPrios] = {};
        Event *tail[numEventPrios] = {};
    };

    class PooledLambda;

    /** Earliest pending event under (tick, prio, seq), or null. */
    Event *pickNext() const;

    /** First occupied bucket at/after @p start, circular; -1 if none. */
    int nextOccupiedBucket(unsigned start) const;

    void bucketInsert(Event &e);
    void bucketRemove(Event &e);

    static bool laterThan(const Event *a, const Event *b);
    void heapPush(Event *e);
    void heapRemove(Event *e);
    void heapSiftUp(std::size_t i);
    void heapSiftDown(std::size_t i);

    PooledLambda *acquireLambda();
    void releaseLambda(PooledLambda *e);

    std::array<Bucket, wheelSize> _wheel{};
    std::array<std::uint64_t, wheelSize / 64> _occupied{};
    std::vector<Event *> _heap;

    PooledLambda *_lambdaFree = nullptr;
    std::vector<std::unique_ptr<PooledLambda[]>> _lambdaChunks;

    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _numExecuted = 0;
    std::size_t _numPending = 0;
};

} // namespace swex

#endif // SWEX_SIM_EVENT_QUEUE_HH
