#include "mem/cache.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace swex
{

const char *
lineStateName(LineState s)
{
    switch (s) {
      case LineState::Invalid: return "Invalid";
      case LineState::Shared: return "Shared";
      case LineState::Modified: return "Modified";
      case LineState::Instr: return "Instr";
      case LineState::Exclusive: return "Exclusive";
      case LineState::Owned: return "Owned";
      case LineState::Forward: return "Forward";
    }
    return "?";
}

Cache::Cache(unsigned cache_bytes, unsigned victim_entries,
             stats::Group *stats_parent)
    : statsGroup(stats_parent, "cache"),
      dataHits(&statsGroup, "dataHits", "data accesses that hit"),
      dataMisses(&statsGroup, "dataMisses", "data accesses that missed"),
      instrHits(&statsGroup, "instrHits", "instruction fetches that hit"),
      instrMisses(&statsGroup, "instrMisses",
                  "instruction fetches that missed"),
      victimHits(&statsGroup, "victimHits",
                 "accesses satisfied by the victim buffer"),
      evictions(&statsGroup, "evictions", "lines pushed out of the node"),
      dirtyEvictions(&statsGroup, "dirtyEvictions",
                     "evictions requiring a writeback"),
      _victimEntries(victim_entries)
{
    SWEX_ASSERT(isPowerOf2(cache_bytes) && cache_bytes >= blockBytes,
                "cache size must be a power of two");
    _numSets = cache_bytes / blockBytes;
    _sets.resize(_numSets);
    _touched.assign((_numSets + 63) / 64, 0);
    _victim.resize(_victimEntries);
}

unsigned
Cache::victimFind(Addr block_addr) const
{
    for (unsigned i = 0; i < _vCount; ++i) {
        const CacheLine &l = victimAt(i);
        if (l.valid() && l.blockAddr == block_addr)
            return i;
    }
    return _vCount;
}

void
Cache::victimErase(unsigned i)
{
    // Close the gap from whichever side holds fewer lines.
    if (i < _vCount / 2) {
        for (unsigned j = i; j > 0; --j)
            victimAt(j) = victimAt(j - 1);
        _vHead = _vHead + 1 < _victimEntries ? _vHead + 1 : 0;
    } else {
        for (unsigned j = i; j + 1 < _vCount; ++j)
            victimAt(j) = victimAt(j + 1);
    }
    --_vCount;
}

CacheLine *
Cache::probeMain(Addr block_addr)
{
    CacheLine &line = _sets[indexOf(block_addr)];
    if (line.valid() && line.blockAddr == block_addr)
        return &line;
    return nullptr;
}

CacheLine *
Cache::access(Addr block_addr, bool &victim_hit)
{
    victim_hit = false;
    if (CacheLine *line = probeMain(block_addr))
        return line;

    const unsigned i = victimFind(block_addr);
    if (i == _vCount)
        return nullptr;
    // Swap the victim line back into its set; the displaced occupant
    // joins the victim buffer as its youngest line (the erase made
    // room, so nothing is pushed out).
    victim_hit = true;
    CacheLine incoming = victimAt(i);
    victimErase(i);
    CacheLine &slot = _sets[indexOf(block_addr)];
    if (slot.valid())
        victimAt(_vCount++) = slot;
    slot = incoming;
    return &slot;
}

Eviction
Cache::pushToVictim(const CacheLine &line)
{
    Eviction ev;
    if (_victimEntries == 0) {
        ev.valid = true;
        ev.blockAddr = line.blockAddr;
        ev.dirty = line.dirty();
        ev.data = line.data;
        return ev;
    }
    if (_vCount < _victimEntries) {
        victimAt(_vCount++) = line;
        return ev;
    }
    // Full: the oldest line leaves the node and its slot takes the
    // new line as the youngest.
    CacheLine &oldest = victimAt(0);
    ev.valid = true;
    ev.blockAddr = oldest.blockAddr;
    ev.dirty = oldest.dirty();
    ev.data = oldest.data;
    oldest = line;
    _vHead = _vHead + 1 < _victimEntries ? _vHead + 1 : 0;
    return ev;
}

Eviction
Cache::fill(Addr block_addr, LineState state, const DataBlock &data)
{
    SWEX_ASSERT(state != LineState::Invalid, "filling an invalid line");
    SWEX_ASSERT(block_addr == blockAlign(block_addr),
                "fill address not block aligned");

    const unsigned set = indexOf(block_addr);
    _touched[set / 64] |= std::uint64_t{1} << (set % 64);
    CacheLine &slot = _sets[set];
    Eviction ev;
    if (slot.valid() && slot.blockAddr != block_addr)
        ev = pushToVictim(slot);

    if (ev.valid) {
        ++evictions;
        if (ev.dirty)
            ++dirtyEvictions;
    }

    slot.blockAddr = block_addr;
    slot.state = state;
    slot.data = data;
    return ev;
}

RemovalResult
Cache::remove(Addr block_addr)
{
    RemovalResult res;
    CacheLine &slot = _sets[indexOf(block_addr)];
    if (slot.valid() && slot.blockAddr == block_addr) {
        res.wasPresent = true;
        res.wasDirty = slot.dirty();
        res.data = slot.data;
        slot.state = LineState::Invalid;
        return res;
    }
    const unsigned i = victimFind(block_addr);
    if (i < _vCount) {
        const CacheLine &vl = victimAt(i);
        res.wasPresent = true;
        res.wasDirty = vl.dirty();
        res.data = vl.data;
        victimErase(i);
    }
    return res;
}

RemovalResult
Cache::downgrade(Addr block_addr)
{
    RemovalResult res;
    CacheLine &slot = _sets[indexOf(block_addr)];
    CacheLine *line = nullptr;
    if (slot.valid() && slot.blockAddr == block_addr) {
        line = &slot;
    } else {
        // The youngest copy, should a block sit in the buffer twice.
        for (unsigned i = 0; i < _vCount; ++i) {
            CacheLine &vl = victimAt(i);
            if (vl.valid() && vl.blockAddr == block_addr)
                line = &vl;
        }
    }
    if (!line)
        return res;
    res.wasPresent = true;
    res.wasDirty = line->dirty();
    res.data = line->data;
    if (line->state == LineState::Modified)
        line->state = LineState::Shared;
    return res;
}

CacheLine *
Cache::findLine(Addr block_addr)
{
    CacheLine &slot = _sets[indexOf(block_addr)];
    if (slot.valid() && slot.blockAddr == block_addr)
        return &slot;
    const unsigned i = victimFind(block_addr);
    return i < _vCount ? &victimAt(i) : nullptr;
}

const CacheLine *
Cache::peek(Addr block_addr) const
{
    const CacheLine &slot = _sets[indexOf(block_addr)];
    if (slot.valid() && slot.blockAddr == block_addr)
        return &slot;
    const unsigned i = victimFind(block_addr);
    return i < _vCount ? &victimAt(i) : nullptr;
}

bool
Cache::holds(Addr block_addr) const
{
    const CacheLine &slot = _sets[indexOf(block_addr)];
    if (slot.valid() && slot.blockAddr == block_addr)
        return true;
    return victimFind(block_addr) < _vCount;
}

void
Cache::flushAll()
{
    for (auto &line : _sets)
        line.state = LineState::Invalid;
    std::fill(_touched.begin(), _touched.end(), 0);
    _vHead = 0;
    _vCount = 0;
}

} // namespace swex
