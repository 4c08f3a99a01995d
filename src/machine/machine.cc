#include "machine/machine.hh"

#include <algorithm>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/auditor.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "machine/mem_api.hh"

namespace swex
{

Machine::Machine(const MachineConfig &config)
    : network(eventq, config.numNodes, config.net, &root), cfg(config),
      heapPtr(static_cast<std::size_t>(config.numNodes))
{
    SWEX_ASSERT(cfg.numNodes >= 1 && cfg.numNodes <= maxNodes,
                "numNodes out of range: %d", cfg.numNodes);
    SWEX_ASSERT(isPowerOf2(cfg.segBytes), "segBytes must be 2^k");

    backend = makeCoherenceBackend(*this, cfg);

    nodes.reserve(static_cast<std::size_t>(cfg.numNodes));
    for (int i = 0; i < cfg.numNodes; ++i) {
        nodes.push_back(std::make_unique<Node>(*this, i));
        network.setReceiver(i, nodes.back().get());
        _caches.push_back(&nodes.back()->cache());
        // Reserve the low 64 KB of each segment for instructions and
        // start the heap 8 blocks in, so early allocations do not map
        // onto the cache sets instruction footprints occupy.
        heapPtr[static_cast<std::size_t>(i)] = 64 * 1024 +
                                               8 * blockBytes;
    }
}

Machine::~Machine() = default;

unsigned
Machine::cacheIndexOf(Addr a) const
{
    return nodes[0]->cache().indexOf(blockAlign(a));
}

Addr
Machine::allocOn(NodeId n, std::uint64_t bytes, std::uint64_t align)
{
    SWEX_ASSERT(n >= 0 && n < cfg.numNodes, "allocOn: bad node %d",
                static_cast<int>(n));
    auto &ptr = heapPtr[static_cast<std::size_t>(n)];
    ptr = roundUp(ptr, align);
    Addr a = nodeBase(n) + ptr;
    ptr += bytes;
    SWEX_ASSERT(ptr <= cfg.segBytes, "node %d out of shared memory",
                static_cast<int>(n));
    return a;
}

Addr
Machine::allocAtIndex(NodeId n, std::uint64_t bytes,
                      unsigned cache_index)
{
    // Advance the bump pointer until the block's set index matches.
    auto &ptr = heapPtr[static_cast<std::size_t>(n)];
    ptr = roundUp(ptr, blockBytes);
    unsigned sets = nodes[0]->cache().numSets();
    unsigned cur = static_cast<unsigned>(
        ((nodeBase(n) + ptr) / blockBytes) % sets);
    unsigned skip = (cache_index + sets - cur) % sets;
    ptr += static_cast<std::uint64_t>(skip) * blockBytes;
    return allocOn(n, bytes, blockBytes);
}

Addr
Machine::instrBase(NodeId n) const
{
    return nodeBase(n);   // low 64 KB of each segment is reserved
}

Tick
Machine::run(const ThreadFn &fn, int num_threads)
{
    if (num_threads < 0)
        num_threads = cfg.numNodes;
    SWEX_ASSERT(num_threads >= 1 && num_threads <= cfg.numNodes,
                "bad thread count %d", num_threads);

    Tick start = eventq.curTick();
    running = num_threads;
    _runStatus = RunStatus::Completed;
    _lastProgress = start;

    // Handles persist on the machine (not this frame): an abandoned
    // run leaves suspended coroutines referencing them.
    _memHandles.clear();
    _memHandles.reserve(static_cast<std::size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
        _memHandles.push_back(std::make_unique<Mem>(*this, i));
        nodes[static_cast<std::size_t>(i)]->proc.runThread(
            fn(*_memHandles.back(), i));
    }

    const Tick deadlineTick =
        cfg.deadline ? start + cfg.deadline : 0;

    while (running > 0) {
        if (!eventq.runOne()) {
            if (deadlineTick) {
                _runStatus = RunStatus::Deadlocked;
                return eventq.curTick() - start;
            }
            panic("deadlock: %d threads blocked with no events",
                  running);
        }
        if (deadlineTick) {
            if (eventq.curTick() > deadlineTick) {
                _runStatus = RunStatus::DeadlineExceeded;
                return eventq.curTick() - start;
            }
        } else if (eventq.curTick() > cfg.maxTicks) {
            fatal("run exceeded maxTicks (%llu): livelock?",
                  static_cast<unsigned long long>(cfg.maxTicks));
        }
    }
    // Drain residual protocol activity (writebacks, late acks) so the
    // machine is quiescent before the caller inspects state. Under a
    // deadline the drain is bounded too: a retransmit loop that never
    // empties the queue must not hang the sweep.
    if (deadlineTick) {
        eventq.run(deadlineTick);
        if (!eventq.empty()) {
            _runStatus = RunStatus::DeadlineExceeded;
            return eventq.curTick() - start;
        }
    } else {
        eventq.run();
    }
    if (_auditor)
        _auditor->checkQuiescent();
    backend->auditQuiescent(_auditor);
    network.checkDeliveryQuiescent(
        [this](NodeId src, NodeId dst, const std::string &what) {
            if (_auditor) {
                _auditor->deliveryViolation(src, dst, what);
            } else {
                panic("delivery violation %d->%d: %s",
                      static_cast<int>(src), static_cast<int>(dst),
                      what.c_str());
            }
        });
    return eventq.curTick() - start;
}

void
Machine::attachAuditor(CoherenceAuditor *a)
{
    _auditor = a;
    for (auto &node : nodes)
        node->coh->setAuditHook(a);
    backend->attachAuditor(a);
    if (!a)
        return;
    a->setHomeOf([this](Addr addr) { return homeOf(addr); });
    for (auto &node : nodes)
        a->addNode(node->coh->auditView(node->id()));
}

std::uint64_t
Machine::imageHash() const
{
    // Canonical block set: everything any memory or cache has touched,
    // in address order so the hash is interleaving-independent. A
    // block's value is what debugRead() returns for each of its words:
    // the first dirty copy in node order, else home memory. One pass
    // over the caches gathers both.
    std::vector<Addr> blocks;
    std::vector<std::pair<Addr, const DataBlock *>> dirty;
    for (const auto &node : nodes) {
        node->mem.forEachBlock(
            [&](Addr a, const DataBlock &) { blocks.push_back(a); });
        const Cache &c = node->cache();
        c.forEachLine([&](const CacheLine &line) {
            if (line.state != LineState::Instr)
                blocks.push_back(line.blockAddr);
            // Only the copy peek() finds is the one debugRead() sees.
            if (line.dirty() && c.peek(line.blockAddr) == &line)
                dirty.emplace_back(line.blockAddr, &line.data);
        });
    }
    std::sort(blocks.begin(), blocks.end());
    blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
    // Stable, so a block's copy from the lowest node comes first.
    std::stable_sort(dirty.begin(), dirty.end(),
                     [](const auto &x, const auto &y) {
                         return x.first < y.first;
                     });

    std::uint64_t h = 0x243f6a8885a308d3ULL;
    auto mix = [&h](std::uint64_t v) {
        std::uint64_t z = h ^ v;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        h = z ^ (z >> 31);
    };

    auto d = dirty.begin();
    for (Addr b : blocks) {
        while (d != dirty.end() && d->first < b)
            ++d;
        const DataBlock &data =
            d != dirty.end() && d->first == b
                ? *d->second
                : nodes[static_cast<std::size_t>(homeOf(b))]
                      ->mem.readBlock(b);
        // All-zero blocks hash to nothing: which zero blocks were ever
        // materialized depends on the protocol and interleaving, not
        // on the program's result.
        if (data == DataBlock{})
            continue;
        mix(b);
        for (Word w : data.words)
            mix(w);
    }
    return h;
}

void
Machine::barrierArrive(int node, std::coroutine_handle<> h)
{
    barrierWaiters.emplace_back(node, h);
    if (static_cast<int>(barrierWaiters.size()) < running)
        return;
    auto waiters = std::move(barrierWaiters);
    barrierWaiters.clear();
    for (auto &[n, handle] : waiters) {
        nodes[static_cast<std::size_t>(n)]->proc.resumeAfter(
            handle, barrierLatency);
    }
}

Word
Machine::debugRead(Addr a) const
{
    Addr baddr = blockAlign(a);
    for (const Cache *c : _caches) {
        if (!c->setTouched(baddr))
            continue;   // no copy anywhere in this cache
        const CacheLine *line = c->peek(baddr);
        if (line && line->dirty())
            return line->data.read(a);
    }
    return nodes[static_cast<std::size_t>(homeOf(a))]
        ->mem.readWord(a);
}

void
Machine::debugWrite(Addr a, Word v)
{
    Addr baddr = blockAlign(a);
    for (Cache *c : _caches) {
        // Keep any cached copies consistent with the backdoor write.
        // An untouched set holds no copy, and access() there would be
        // a miss that changes nothing.
        if (!c->setTouched(baddr))
            continue;
        bool victim_hit = false;
        if (CacheLine *line = c->access(baddr, victim_hit))
            line->data.write(a, v);
    }
    nodes[static_cast<std::size_t>(homeOf(a))]->mem.writeWord(a, v);
}

void
Machine::checkCoherence() const
{
    // Count copies per block. At most one cache may hold data newer
    // than memory (Modified/Owned), and a Modified or Exclusive line
    // must be the sole copy. Owned lines (snooping MOESI/Dragon)
    // legitimately coexist with Shared peers.
    struct Copies
    {
        int all = 0;
        int dirty = 0;
        int sole = 0;   ///< Modified or Exclusive copies
    };
    std::unordered_map<Addr, Copies> copies;
    for (const auto &node : nodes) {
        node->cache().forEachLine([&](const CacheLine &line) {
            if (line.state == LineState::Instr)
                return;
            Copies &n = copies[line.blockAddr];
            ++n.all;
            if (line.dirty())
                ++n.dirty;
            if (line.state == LineState::Modified ||
                line.state == LineState::Exclusive) {
                ++n.sole;
            }
        });
    }
    for (const auto &[addr, n] : copies) {
        SWEX_ASSERT(n.dirty <= 1, "%d dirty copies of block %#llx",
                    n.dirty, static_cast<unsigned long long>(addr));
        SWEX_ASSERT(n.sole == 0 || n.all == 1,
                    "exclusive block %#llx also cached elsewhere (%d)",
                    static_cast<unsigned long long>(addr), n.all);
    }
}

void
Machine::checkInvariants() const
{
    for (const auto &node : nodes)
        node->coh->checkInvariants();
    checkCoherence();
}

void
Machine::dumpStats(std::ostream &os) const
{
    root.dump(os);
}

void
Machine::resetStats()
{
    root.reset();
}

double
Machine::sumStat(const std::string &path) const
{
    double sum = 0;
    for (const auto &node : nodes) {
        const stats::Stat *s = node->statsGroup.find(path);
        if (const auto *sc = dynamic_cast<const stats::Scalar *>(s))
            sum += sc->value();
    }
    return sum;
}

} // namespace swex
