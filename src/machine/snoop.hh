/**
 * @file
 * The snooping machine model: every node's cache controller sits on
 * one split-transaction shared bus instead of the point-to-point
 * mesh. A bus transaction is serviced atomically at its serialization
 * point — the snoop phase — where every peer cache observes it and
 * transitions in node-id order, so runs are deterministic by
 * construction. Timing uses a free-at model: each transaction
 * occupies the bus for an address phase plus an optional data/update
 * phase, and the requesting processor resumes after the supplier
 * (peer cache or memory) latency on top of the occupancy.
 *
 * Protocols: MESI, MOESI, MESIF (invalidate-based) and Dragon
 * (update-based). Dragon's E/Sc/Sm/M map onto LineState
 * Exclusive/Shared/Owned/Modified; atomics under Dragon are modeled
 * as invalidating read-modify-writes (BusRdX) rather than update
 * sequences. Dirty evictions write memory immediately and queue a
 * writeback transaction for bus occupancy and stats only, so no data
 * is ever in flight on the bus.
 *
 * The snoop phase is modeled, not broadcast on the host: a presence
 * filter at the bus (a full map per block, one bit per node mod 64)
 * names the caches that may hold the block, and only those are probed.
 */

#ifndef SWEX_MACHINE_SNOOP_HH
#define SWEX_MACHINE_SNOOP_HH

#include <deque>
#include <vector>

#include "base/stats.hh"
#include "machine/cache_controller.hh"
#include "machine/coherence.hh"
#include "mem/block_table.hh"
#include "mem/cache.hh"
#include "sim/event.hh"

namespace swex
{

class SnoopBackend;

/** One queued bus request. Demand requests carry their context in the
 *  owning controller's MSHR; writebacks are occupancy/stats only. */
struct BusTxn
{
    NodeId node = invalidNode;
    bool writeback = false;
    Addr blockAddr = 0;
    std::uint64_t seq = 0;   ///< arrival order (FIFO discipline)
};

/** One node's snooping cache controller. */
class SnoopNodeCoherence final : public NodeCoherence
{
  public:
    SnoopNodeCoherence(Node &node, SnoopBackend &backend,
                       const MachineConfig &mc);

    // ---- NodeCoherence ----------------------------------------------
    void issue(MemOpType type, Addr addr, Word operand) override;
    Cycles instrTouch(Addr block_addr) override;
    Cycles runTrap(const TrapItem &item) override;
    RemovalResult invalidateLocal(Addr block_addr) override;
    RemovalResult downgradeLocal(Addr block_addr) override;
    void dispatchRx(const Message &msg) override;
    bool interceptSend(const Message &msg, Cycles delay) override;
    Cache &cache() override { return _cache; }
    void setAuditHook(CoherenceAuditor *) override {}
    AuditNodeView auditView(NodeId id) const override;

    /**
     * Service this node's transaction at its bus serialization point:
     * snoop every peer, transition states, fill the cache, apply the
     * operation, and schedule the processor's resume.
     * @return bus occupancy in cycles
     */
    Cycles serviceAtBus(const BusTxn &t);

    bool hasOutstanding() const { return mshr.valid; }
    NodeId nodeId() const;

    stats::Group statsGroup;
    stats::Scalar loads;
    stats::Scalar stores;
    stats::Scalar atomics;
    stats::Scalar busRequests;       ///< demand transactions issued
    stats::Distribution missLatency; ///< issue-to-complete, in cycles

  private:
    struct Mshr
    {
        bool valid = false;
        MemOpType type = MemOpType::Load;
        Addr addr = 0;        ///< full word address
        Word operand = 0;
        Tick issued = 0;
    };

    void complete(Word value, Cycles delay);
    void fillLine(Addr block_addr, LineState state,
                  const DataBlock &data);
    /** Perform a store/atomic on @p line and return the op's result
     *  (the old word for atomics). Takes the op explicitly so the
     *  cache-hit fast path works without an MSHR allocation. */
    Word applyOp(CacheLine *line, MemOpType type, Addr addr,
                 Word operand);

    struct CompleteEvent final : Event
    {
        explicit CompleteEvent(SnoopNodeCoherence &c)
            : Event(EventPrio::Processor), ctrl(c)
        {
        }

        void process() override;

        SnoopNodeCoherence &ctrl;
        Word value = 0;
    };

    Node &_node;
    SnoopBackend &_backend;
    CacheCtrlConfig cfg;
    Cache _cache;
    Mshr mshr;
    CompleteEvent completeEvent{*this};
};

/** The split-transaction shared-bus machine model. */
class SnoopBackend final : public CoherenceBackend
{
  public:
    SnoopBackend(Machine &m);

    // ---- CoherenceBackend -------------------------------------------
    MachineModel model() const override { return MachineModel::Snoop; }
    std::string protocolName() const override;
    std::unique_ptr<NodeCoherence> makeNode(Node &node) override;
    void attachAuditor(CoherenceAuditor *a) override;
    void auditQuiescent(CoherenceAuditor *a) override;
    std::uint64_t trafficMessages() const override;

    // ---- bus --------------------------------------------------------
    /** Queue a demand transaction for @p node (context in its MSHR). */
    void requestBus(NodeId node, Addr block_addr);

    /** Queue a writeback transaction (occupancy/stats only; memory
     *  was already written at eviction time). */
    void requestWriteback(NodeId node, Addr block_addr);

    /** A peer's data copy of the block in service. */
    struct PeerHit
    {
        SnoopNodeCoherence *c;
        CacheLine *l;
    };

    /**
     * Snoop phase: every controller except @p self that the presence
     * filter names looks up @p block_addr, in node-id order; returns
     * the data (non-Instr) copies found. The vector is scratch that
     * the next call reuses; arbitrate() services one transaction at a
     * time, so a caller's use never overlaps another call.
     */
    const std::vector<PeerHit> &snoopPeers(NodeId self, Addr block_addr);

    /** Presence filter: node @p n now holds a data copy. */
    void noteFill(NodeId n, Addr block_addr);

    /** Presence filter: a copy left node @p n. The bit stays set while
     *  any node of its alias class (n mod 64) still holds the block. */
    void noteLeave(NodeId n, Addr block_addr);

    /** Memory access by global address (the segment's backing DRAM). */
    const DataBlock &memRead(Addr block_addr) const;
    void memWrite(Addr block_addr, const DataBlock &data);

    bool busIdle() const { return _queue.empty() && !_inService; }
    std::string pendingSummary() const;

    Machine &machine() { return _m; }
    SnoopProtocol protocol() const { return _proto; }
    const SnoopBusConfig &busConfig() const { return _bus; }
    Cycles memLatency() const;

    // Bus statistics: the protocol-differentiation surface (MESI's
    // readExcl/upgrades/invalidations vs Dragon's updates/wordUpdates).
    stats::Group statsGroup;
    stats::Scalar transactions;
    stats::Scalar reads;            ///< BusRd (demand read misses)
    stats::Scalar readExcl;         ///< BusRdX (write/atomic misses)
    stats::Scalar upgrades;         ///< BusUpgr (write hit on shared)
    stats::Scalar updates;          ///< BusUpd word broadcasts (Dragon)
    stats::Scalar writebacks;       ///< dirty-eviction transactions
    stats::Scalar invalidations;    ///< peer copies invalidated
    stats::Scalar wordUpdates;      ///< peer copies updated in place
    stats::Scalar cacheSupplies;    ///< data supplied cache-to-cache
    stats::Scalar memSupplies;      ///< data supplied by memory

  private:
    void scheduleArb();
    void arbitrate();
    std::size_t pickNext() const;

    /** The filter's segment for @p block_addr (its home's). */
    BlockTable<std::uint64_t> &presence(Addr block_addr);

    /** Bit n mod 64 of the block's presence word. */
    bool presentBit(NodeId n, Addr block_addr);

    /** Audit the filter for one block against every cache's copy. */
    void auditPresence(CoherenceAuditor &a, Addr block_addr);

    Machine &_m;
    SnoopProtocol _proto;
    SnoopBusConfig _bus;
    std::vector<SnoopNodeCoherence *> _ctrls;   ///< indexed by node id
    std::vector<PeerHit> _peerHits;             ///< snoopPeers() scratch
    /** Presence filter, one table per home segment: bit n % 64 of a
     *  block's word is set while node n may hold a data copy. */
    std::vector<BlockTable<std::uint64_t>> _presence;
    CoherenceAuditor *_auditor = nullptr;

    std::deque<BusTxn> _queue;
    Tick _freeAt = 0;
    bool _inService = false;
    std::uint64_t _nextSeq = 0;
    NodeId _lastGranted = invalidNode;
    MemberEvent<&SnoopBackend::arbitrate> _arbEvent{
        *this, EventPrio::Controller};
};

} // namespace swex

#endif // SWEX_MACHINE_SNOOP_HH
