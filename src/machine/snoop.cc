#include "machine/snoop.hh"

#include <algorithm>
#include <bit>

#include "audit/auditor.hh"
#include "base/logging.hh"
#include "machine/machine.hh"
#include "machine/node.hh"

namespace swex
{

// ---------------------------------------------------------------------
// SnoopNodeCoherence
// ---------------------------------------------------------------------

SnoopNodeCoherence::SnoopNodeCoherence(Node &node, SnoopBackend &backend,
                                       const MachineConfig &mc)
    : statsGroup(&node.statsGroup, "cachectrl"),
      loads(&statsGroup, "loads", "load operations"),
      stores(&statsGroup, "stores", "store operations"),
      atomics(&statsGroup, "atomics", "atomic operations"),
      busRequests(&statsGroup, "busRequests",
                  "demand bus transactions issued"),
      missLatency(&statsGroup, "missLatency",
                  "miss issue-to-complete latency in cycles"),
      _node(node), _backend(backend), cfg(mc.cacheCtrl),
      _cache(mc.cacheCtrl.cacheBytes, mc.cacheCtrl.victimEntries,
             &statsGroup)
{
}

NodeId
SnoopNodeCoherence::nodeId() const
{
    return _node.id();
}

AuditNodeView
SnoopNodeCoherence::auditView(NodeId id) const
{
    return {id, nullptr, &_cache};
}

Cycles
SnoopNodeCoherence::runTrap(const TrapItem &)
{
    panic("snooping model has no software-extension traps");
}

void
SnoopNodeCoherence::dispatchRx(const Message &msg)
{
    panic("snooping model received a network message: %s",
          msg.describe().c_str());
}

bool
SnoopNodeCoherence::interceptSend(const Message &msg, Cycles)
{
    panic("snooping model sent a network message: %s",
          msg.describe().c_str());
}

RemovalResult
SnoopNodeCoherence::invalidateLocal(Addr block_addr)
{
    RemovalResult r = _cache.remove(block_addr);
    if (r.wasPresent)
        _backend.noteLeave(_node.id(), block_addr);
    return r;
}

RemovalResult
SnoopNodeCoherence::downgradeLocal(Addr block_addr)
{
    return _cache.downgrade(block_addr);
}

void
SnoopNodeCoherence::CompleteEvent::process()
{
    ctrl._node.proc.completeMemOp(value);
}

void
SnoopNodeCoherence::complete(Word value, Cycles delay)
{
    completeEvent.value = value;
    _node.eventq().scheduleIn(completeEvent, delay);
}

void
SnoopNodeCoherence::fillLine(Addr block_addr, LineState state,
                             const DataBlock &data)
{
    Eviction ev = _cache.fill(block_addr, state, data);
    if (state != LineState::Instr)
        _backend.noteFill(_node.id(), block_addr);
    if (!ev.valid)
        return;
    _backend.noteLeave(_node.id(), ev.blockAddr);
    if (ev.dirty) {
        // Memory is written immediately (no data rides the queued
        // transaction); the writeback occupies the bus later.
        _backend.memWrite(ev.blockAddr, ev.data);
        _backend.requestWriteback(_node.id(), ev.blockAddr);
    }
}

Cycles
SnoopNodeCoherence::instrTouch(Addr block_addr)
{
    bool victim_hit = false;
    CacheLine *line = _cache.access(block_addr, victim_hit);
    if (line) {
        if (line->state == LineState::Instr) {
            ++_cache.instrHits;
            if (victim_hit) {
                ++_cache.victimHits;
                return cfg.victimSwapLatency;
            }
            return 0;
        }
        panic("instruction fetch hit a data line");
    }
    ++_cache.instrMisses;
    fillLine(block_addr, LineState::Instr, DataBlock{});
    return cfg.instrMissLatency;
}

void
SnoopNodeCoherence::issue(MemOpType type, Addr addr, Word operand)
{
    SWEX_ASSERT(!mshr.valid, "second outstanding memory op");
    Addr baddr = blockAlign(addr);
    bool victim_hit = false;
    CacheLine *line = _cache.access(baddr, victim_hit);
    if (victim_hit)
        ++_cache.victimHits;
    Cycles lat = cfg.hitLatency +
                 (victim_hit ? cfg.victimSwapLatency : 0);

    switch (type) {
      case MemOpType::Load:
        ++loads;
        if (line && line->state != LineState::Instr) {
            ++_cache.dataHits;
            complete(line->data.read(addr), lat);
            return;
        }
        break;

      case MemOpType::Store:
      case MemOpType::FetchAdd:
      case MemOpType::Swap:
        if (type == MemOpType::Store)
            ++stores;
        else
            ++atomics;
        if (line && (line->state == LineState::Modified ||
                     line->state == LineState::Exclusive)) {
            // E admits a silent upgrade: the copy is known sole.
            ++_cache.dataHits;
            line->state = LineState::Modified;
            complete(applyOp(line, type, addr, operand), lat);
            return;
        }
        break;
    }

    ++_cache.dataMisses;
    mshr.valid = true;
    mshr.type = type;
    mshr.addr = addr;
    mshr.operand = operand;
    mshr.issued = _node.eventq().curTick();
    ++busRequests;
    _backend.requestBus(_node.id(), baddr);
}

Word
SnoopNodeCoherence::applyOp(CacheLine *line, MemOpType type,
                            Addr addr, Word operand)
{
    Word old = line->data.read(addr);
    switch (type) {
      case MemOpType::Store:
        line->data.write(addr, operand);
        return 0;
      case MemOpType::FetchAdd:
        line->data.write(addr, old + operand);
        return old;
      case MemOpType::Swap:
        line->data.write(addr, operand);
        return old;
      default:
        panic("applyOp on a load");
    }
}

Cycles
SnoopNodeCoherence::serviceAtBus(const BusTxn &t)
{
    SnoopBackend &b = _backend;
    const SnoopBusConfig &bc = b.busConfig();

    if (t.writeback) {
        ++b.writebacks;
        return bc.addrCycles + bc.dataCycles;
    }

    SWEX_ASSERT(mshr.valid && blockAlign(mshr.addr) == t.blockAddr,
                "bus grant with no matching transaction");
    const Addr addr = mshr.addr;
    const Addr baddr = t.blockAddr;
    const SnoopProtocol proto = b.protocol();
    const bool isLoad = mshr.type == MemOpType::Load;
    const bool isAtomic = mshr.type == MemOpType::FetchAdd ||
                          mshr.type == MemOpType::Swap;
    // Dragon stores broadcast the word; Dragon atomics are modeled as
    // invalidating read-modify-writes like every other protocol.
    const bool dragonUpd =
        proto == SnoopProtocol::Dragon && !isLoad && !isAtomic;

    // Snoop phase: every peer observes the transaction now, in
    // node-id order (the serialization point).
    const std::vector<SnoopBackend::PeerHit> &peers =
        b.snoopPeers(_node.id(), baddr);
    const bool any = !peers.empty();

    CacheLine *dirtyL = nullptr;
    for (auto &ph : peers) {
        if (ph.l->dirty()) {
            dirtyL = ph.l;
            break;   // single-owner invariant: at most one dirty copy
        }
    }

    CacheLine *own = _cache.findLine(baddr);
    bool hasData = false, hasUpd = false, cacheSupply = false;
    Word value = 0;

    if (isLoad) {
        ++b.reads;
        hasData = true;
        DataBlock data;
        if (dirtyL) {
            data = dirtyL->data;
            cacheSupply = true;
        } else if (proto == SnoopProtocol::Mesif && any) {
            // The clean forwarder (F, else a sole E copy) supplies.
            CacheLine *sup = nullptr;
            for (auto &ph : peers) {
                if (ph.l->state == LineState::Forward) {
                    sup = ph.l;
                    break;
                }
            }
            if (!sup) {
                for (auto &ph : peers) {
                    if (ph.l->state == LineState::Exclusive) {
                        sup = ph.l;
                        break;
                    }
                }
            }
            if (sup) {
                data = sup->data;
                cacheSupply = true;
            } else {
                data = b.memRead(baddr);
            }
        } else {
            data = b.memRead(baddr);
        }

        for (auto &ph : peers) {
            CacheLine *pl = ph.l;
            switch (proto) {
              case SnoopProtocol::Mesi:
              case SnoopProtocol::Mesif:
                // No owned state: a dirty supplier also updates memory.
                if (pl->dirty())
                    b.memWrite(baddr, pl->data);
                pl->state = LineState::Shared;
                break;
              case SnoopProtocol::Moesi:
              case SnoopProtocol::Dragon:
                // The dirty copy keeps ownership (O / Sm); memory
                // stays stale until the owner is evicted.
                if (pl->state == LineState::Modified)
                    pl->state = LineState::Owned;
                else if (pl->state == LineState::Exclusive)
                    pl->state = LineState::Shared;
                break;
            }
        }

        LineState mine =
            !any ? LineState::Exclusive
                 : (proto == SnoopProtocol::Mesif ? LineState::Forward
                                                  : LineState::Shared);
        fillLine(baddr, mine, data);
        value = _cache.probeMain(baddr)->data.read(addr);
    } else if (dragonUpd) {
        if (own) {
            // BusUpd: broadcast the word; the writer becomes (or
            // stays) the owner, any previous owner demotes to Sc.
            ++b.updates;
            hasUpd = true;
            for (auto &ph : peers) {
                ph.l->data.write(addr, mshr.operand);
                if (ph.l->state != LineState::Shared)
                    ph.l->state = LineState::Shared;
                ++b.wordUpdates;
            }
            value = applyOp(own, mshr.type, addr, mshr.operand);
            own->state = any ? LineState::Owned : LineState::Modified;
        } else {
            // Write miss: fetch the block and broadcast the word in
            // one transaction (BusRd + BusUpd phases).
            ++b.reads;
            hasData = true;
            DataBlock data;
            if (dirtyL) {
                data = dirtyL->data;
                cacheSupply = true;
            } else {
                data = b.memRead(baddr);
            }
            for (auto &ph : peers) {
                ph.l->data.write(addr, mshr.operand);
                if (ph.l->state != LineState::Shared)
                    ph.l->state = LineState::Shared;
                ++b.wordUpdates;
            }
            if (any) {
                ++b.updates;
                hasUpd = true;
            }
            data.write(addr, mshr.operand);
            fillLine(baddr, any ? LineState::Owned : LineState::Modified,
                     data);
            value = 0;
        }
    } else {
        // Invalidating write path: BusUpgr when we still hold a
        // readable copy, else BusRdX. A queued upgrade whose copy was
        // invalidated by an earlier transaction converts here.
        if (own) {
            ++b.upgrades;
            for (auto &ph : peers) {
                ph.c->invalidateLocal(baddr);
                ++b.invalidations;
            }
            value = applyOp(own, mshr.type, addr, mshr.operand);
            own->state = LineState::Modified;
        } else {
            ++b.readExcl;
            hasData = true;
            DataBlock data;
            if (dirtyL) {
                // Ownership transfers cache-to-cache; memory is not
                // updated (the requester becomes the dirty owner).
                data = dirtyL->data;
                cacheSupply = true;
            } else {
                data = b.memRead(baddr);
            }
            for (auto &ph : peers) {
                ph.c->invalidateLocal(baddr);
                ++b.invalidations;
            }
            fillLine(baddr, LineState::Modified, data);
            value = applyOp(_cache.probeMain(baddr), mshr.type,
                            addr, mshr.operand);
        }
    }

    if (cacheSupply)
        ++b.cacheSupplies;
    else if (hasData)
        ++b.memSupplies;

    missLatency.sample(static_cast<double>(
        _node.eventq().curTick() - mshr.issued));
    mshr.valid = false;

    Cycles occupancy = bc.addrCycles + (hasData ? bc.dataCycles : 0) +
                       (hasUpd ? bc.updCycles : 0);
    Cycles supplier =
        hasData ? (cacheSupply ? bc.c2cLatency : b.memLatency()) : 0;
    complete(value, occupancy + supplier + cfg.fillLatency);
    return occupancy;
}

// ---------------------------------------------------------------------
// SnoopBackend
// ---------------------------------------------------------------------

SnoopBackend::SnoopBackend(Machine &m)
    : statsGroup(&m.root, "bus"),
      transactions(&statsGroup, "transactions",
                   "bus transactions serviced"),
      reads(&statsGroup, "reads", "BusRd transactions"),
      readExcl(&statsGroup, "readExcl", "BusRdX transactions"),
      upgrades(&statsGroup, "upgrades", "BusUpgr transactions"),
      updates(&statsGroup, "updates", "BusUpd word broadcasts"),
      writebacks(&statsGroup, "writebacks",
                 "dirty-eviction transactions"),
      invalidations(&statsGroup, "invalidations",
                    "peer copies invalidated"),
      wordUpdates(&statsGroup, "wordUpdates",
                  "peer copies updated in place"),
      cacheSupplies(&statsGroup, "cacheSupplies",
                    "blocks supplied cache-to-cache"),
      memSupplies(&statsGroup, "memSupplies",
                  "blocks supplied by memory"),
      _m(m), _proto(m.config().snoopProtocol), _bus(m.config().bus)
{
    _ctrls.resize(static_cast<std::size_t>(m.config().numNodes),
                  nullptr);
    _presence.reserve(_ctrls.size());
    for (NodeId n = 0; n < m.config().numNodes; ++n)
        _presence.emplace_back(m.nodeBase(n), m.config().segBytes);
}

std::string
SnoopBackend::protocolName() const
{
    return snoopProtocolName(_proto);
}

std::unique_ptr<NodeCoherence>
SnoopBackend::makeNode(Node &node)
{
    auto nc =
        std::make_unique<SnoopNodeCoherence>(node, *this, _m.config());
    _ctrls[static_cast<std::size_t>(node.id())] = nc.get();
    return nc;
}

std::uint64_t
SnoopBackend::trafficMessages() const
{
    return static_cast<std::uint64_t>(transactions.value());
}

Cycles
SnoopBackend::memLatency() const
{
    return _m.config().memLatency;
}

const DataBlock &
SnoopBackend::memRead(Addr block_addr) const
{
    return _m.nodes[static_cast<std::size_t>(_m.homeOf(block_addr))]
        ->mem.readBlock(block_addr);
}

void
SnoopBackend::memWrite(Addr block_addr, const DataBlock &data)
{
    _m.nodes[static_cast<std::size_t>(_m.homeOf(block_addr))]
        ->mem.writeBlock(block_addr, data);
}

void
SnoopBackend::requestBus(NodeId node, Addr block_addr)
{
    _queue.push_back({node, false, block_addr, _nextSeq++});
    scheduleArb();
}

void
SnoopBackend::requestWriteback(NodeId node, Addr block_addr)
{
    _queue.push_back({node, true, block_addr, _nextSeq++});
    scheduleArb();
}

const std::vector<SnoopBackend::PeerHit> &
SnoopBackend::snoopPeers(NodeId self, Addr block_addr)
{
    SWEX_ASSERT(_inService, "snoop outside a bus transaction");
    _peerHits.clear();
    const std::uint64_t *word = presence(block_addr).lookup(block_addr);
    if (!word)
        return _peerHits;
    // Bit k stands for nodes k, k + 64, ...: one lap per 64 nodes,
    // lowest bit first, visits the candidates in node-id order.
    const std::uint64_t bits = *word;
    const std::size_t n = _ctrls.size();
    for (std::size_t lap = 0; lap < n; lap += 64) {
        for (std::uint64_t m = bits; m != 0; m &= m - 1) {
            const std::size_t id =
                lap + static_cast<std::size_t>(std::countr_zero(m));
            if (id >= n)
                break;
            SnoopNodeCoherence *c = _ctrls[id];
            if (c->nodeId() == self)
                continue;
            CacheLine *l = c->cache().findLine(block_addr);
            if (l && l->state != LineState::Instr)
                _peerHits.push_back({c, l});
        }
    }
    return _peerHits;
}

BlockTable<std::uint64_t> &
SnoopBackend::presence(Addr block_addr)
{
    return _presence[static_cast<std::size_t>(_m.homeOf(block_addr))];
}

void
SnoopBackend::noteFill(NodeId n, Addr block_addr)
{
    presence(block_addr).entry(block_addr) |= std::uint64_t{1} << (n % 64);
}

void
SnoopBackend::noteLeave(NodeId n, Addr block_addr)
{
    if (!presentBit(n, block_addr))
        return;
    for (std::size_t m = static_cast<std::size_t>(n % 64);
         m < _ctrls.size(); m += 64) {
        if (_ctrls[m]->cache().holds(block_addr))
            return;
    }
    presence(block_addr).entry(block_addr) &=
        ~(std::uint64_t{1} << (n % 64));
}

bool
SnoopBackend::presentBit(NodeId n, Addr block_addr)
{
    const std::uint64_t *word = presence(block_addr).lookup(block_addr);
    return word && (*word >> (n % 64)) & 1;
}

void
SnoopBackend::scheduleArb()
{
    if (_inService || _arbEvent.scheduled() || _queue.empty())
        return;
    Tick at = std::max(_m.eventq.curTick(), _freeAt);
    _m.eventq.schedule(_arbEvent, at);
}

std::size_t
SnoopBackend::pickNext() const
{
    if (_bus.arbitration == BusArbitration::Fifo || _queue.size() == 1)
        return 0;
    // Round-robin over requesting nodes: grant the queued transaction
    // whose node id has the smallest cyclic distance past the last
    // grant; ties (same node) fall back to arrival order.
    const int n = _m.config().numNodes;
    const int last = _lastGranted == invalidNode
                         ? n - 1
                         : static_cast<int>(_lastGranted);
    std::size_t best = 0;
    int bestDist = n + 1;
    for (std::size_t i = 0; i < _queue.size(); ++i) {
        int dist =
            (static_cast<int>(_queue[i].node) - last - 1 + n) % n;
        if (dist < bestDist) {
            bestDist = dist;
            best = i;
        }
    }
    return best;
}

void
SnoopBackend::arbitrate()
{
    SWEX_ASSERT(!_queue.empty(), "bus arbitration with empty queue");
    std::size_t i = pickNext();
    BusTxn t = _queue[i];
    if (i == 0) {
        _queue.pop_front();
    } else {
        _queue.erase(_queue.begin() +
                     static_cast<std::deque<BusTxn>::difference_type>(i));
    }
    _lastGranted = t.node;

    // Service inside a guard: a dirty eviction during the fill
    // enqueues a writeback, which must not re-arm arbitration until
    // the occupancy below is known.
    _inService = true;
    Cycles occupancy =
        _ctrls[static_cast<std::size_t>(t.node)]->serviceAtBus(t);
    _inService = false;

    ++transactions;
    _freeAt = _m.eventq.curTick() + occupancy;

    if (_auditor && !t.writeback) {
        _auditor->onBusTransaction(t.blockAddr);
        auditPresence(*_auditor, t.blockAddr);
    }

    scheduleArb();
}

void
SnoopBackend::attachAuditor(CoherenceAuditor *a)
{
    _auditor = a;
    if (a) {
        a->setModelStallSummary([this] { return pendingSummary(); });
    }
}

std::string
SnoopBackend::pendingSummary() const
{
    if (_queue.empty())
        return {};
    constexpr std::size_t maxLines = 8;
    std::string out = strfmt("bus holds %zu queued transactions\n",
                             _queue.size());
    std::size_t lines = 0;
    for (const BusTxn &t : _queue) {
        if (++lines > maxLines)
            break;
        out += strfmt("  node %d %s block %#llx\n",
                      static_cast<int>(t.node),
                      t.writeback ? "writeback" : "demand",
                      static_cast<unsigned long long>(t.blockAddr));
    }
    return out;
}

void
SnoopBackend::auditQuiescent(CoherenceAuditor *a)
{
    auto violation = [&](NodeId node, Addr block,
                         const std::string &what) {
        if (a) {
            a->modelViolation(node, block, what);
        } else {
            panic("snoop quiescence: node %d block %#llx: %s",
                  static_cast<int>(node),
                  static_cast<unsigned long long>(block), what.c_str());
        }
    };

    for (const BusTxn &t : _queue) {
        violation(t.node, t.blockAddr,
                  strfmt("%s transaction still queued at quiescence",
                         t.writeback ? "writeback" : "demand"));
    }
    for (const SnoopNodeCoherence *c : _ctrls) {
        if (c && c->hasOutstanding()) {
            violation(c->nodeId(), 0,
                      "MSHR still valid at quiescence");
        }
    }
    if (!a)
        return;

    // The presence filter: every block some cache holds as data, and
    // every block the filter names, checked once.
    std::vector<Addr> blocks;
    for (SnoopNodeCoherence *c : _ctrls) {
        c->cache().forEachLine([&](const CacheLine &line) {
            if (line.state != LineState::Instr)
                blocks.push_back(line.blockAddr);
        });
    }
    for (const BlockTable<std::uint64_t> &table : _presence) {
        table.forEach([&](Addr block, std::uint64_t bits) {
            if (bits != 0)
                blocks.push_back(block);
        });
    }
    std::sort(blocks.begin(), blocks.end());
    blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
    for (Addr block : blocks)
        auditPresence(*a, block);
}

void
SnoopBackend::auditPresence(CoherenceAuditor &a, Addr block_addr)
{
    const bool exact = _ctrls.size() <= 64;
    for (SnoopNodeCoherence *c : _ctrls) {
        const NodeId n = c->nodeId();
        const bool bit = presentBit(n, block_addr);
        const CacheLine *l = c->cache().peek(block_addr);
        if (l && l->state != LineState::Instr && !bit) {
            a.modelViolation(n, block_addr,
                             "data copy missing from the presence filter");
        } else if (exact && bit && !l) {
            a.modelViolation(n, block_addr,
                             "presence filter names a node with no copy");
        }
    }
}

} // namespace swex
