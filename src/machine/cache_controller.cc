#include "machine/cache_controller.hh"

#include <algorithm>

#include "base/logging.hh"
#include "machine/machine.hh"
#include "machine/node.hh"

namespace swex
{

CacheController::CacheController(Node &owner,
                                 const CacheCtrlConfig &config,
                                 stats::Group *stats_parent,
                                 std::uint64_t seed)
    : statsGroup(stats_parent, "cachectrl"),
      cache(config.cacheBytes, config.victimEntries, &statsGroup),
      loads(&statsGroup, "loads", "load operations"),
      stores(&statsGroup, "stores", "store operations"),
      atomics(&statsGroup, "atomics", "atomic operations"),
      remoteReqs(&statsGroup, "remoteReqs",
                 "protocol requests issued to home nodes"),
      busyRetries(&statsGroup, "busyRetries",
                  "requests retried after a busy reply"),
      invsReceived(&statsGroup, "invsReceived",
                   "invalidations received"),
      fetchesReceived(&statsGroup, "fetchesReceived",
                      "FetchS/FetchI requests received"),
      missLatency(&statsGroup, "missLatency",
                  "miss issue-to-complete latency in cycles"),
      node(owner), cfg(config), rng(seed)
{
}

void
CacheController::writebackEvicted(const Eviction &ev)
{
    if (!ev.valid || !ev.dirty)
        return;
    Message wb;
    wb.type = MsgType::Writeback;
    wb.src = node.id();
    wb.dst = node.machine().homeOf(ev.blockAddr);
    wb.addr = ev.blockAddr;
    wb.data = ev.data;
    wb.hasData = true;
    node.sendMsg(wb, 0);
}

Cycles
CacheController::instrTouch(Addr block_addr)
{
    bool victim_hit = false;
    CacheLine *line = cache.access(block_addr, victim_hit);
    if (line) {
        if (line->state == LineState::Instr) {
            ++cache.instrHits;
            if (victim_hit) {
                ++cache.victimHits;
                return cfg.victimSwapLatency;
            }
            return 0;
        }
        // A data line at this address would be a program bug (apps
        // never place data in the instruction region).
        panic("instruction fetch hit a data line");
    }
    ++cache.instrMisses;
    Eviction ev = cache.fill(block_addr, LineState::Instr, DataBlock{});
    writebackEvicted(ev);
    return cfg.instrMissLatency;
}

void
CacheController::issue(MemOpType type, Addr addr, Word operand)
{
    SWEX_ASSERT(!mshr.valid, "second outstanding memory op");
    Addr baddr = blockAlign(addr);
    bool victim_hit = false;
    CacheLine *line = cache.access(baddr, victim_hit);
    if (victim_hit)
        ++cache.victimHits;
    Cycles lat = cfg.hitLatency +
                 (victim_hit ? cfg.victimSwapLatency : 0);

    switch (type) {
      case MemOpType::Load:
        ++loads;
        if (line && line->state != LineState::Instr) {
            ++cache.dataHits;
            complete(line->data.read(addr), lat);
            return;
        }
        break;

      case MemOpType::Store:
        ++stores;
        if (line && line->state == LineState::Modified) {
            ++cache.dataHits;
            line->data.write(addr, operand);
            complete(0, lat);
            return;
        }
        break;

      case MemOpType::FetchAdd:
      case MemOpType::Swap:
        ++atomics;
        if (line && line->state == LineState::Modified) {
            ++cache.dataHits;
            Word old = line->data.read(addr);
            line->data.write(addr, type == MemOpType::FetchAdd
                                       ? old + operand : operand);
            complete(old, lat);
            return;
        }
        break;
    }

    // Miss (or upgrade): start a protocol transaction.
    ++cache.dataMisses;
    mshr.valid = true;
    mshr.type = type;
    mshr.addr = addr;
    mshr.operand = operand;
    mshr.issued = node.eventq().curTick();
    mshr.retries = 0;
    mshr.invalidated = false;
    sendRequest();
}

void
CacheController::sendRequest()
{
    ++remoteReqs;
    Message req;
    req.type = mshr.type == MemOpType::Load ? MsgType::ReadReq
                                            : MsgType::WriteReq;
    req.src = node.id();
    req.dst = node.machine().homeOf(mshr.addr);
    req.addr = blockAlign(mshr.addr);
    node.sendMsg(req, cfg.missIssueLatency);
}

void
CacheController::CompleteEvent::process()
{
    ctrl.node.proc.completeMemOp(value);
}

void
CacheController::complete(Word value, Cycles delay)
{
    completeEvent.value = value;
    node.eventq().scheduleIn(completeEvent, delay);
}

void
CacheController::handleMessage(const Message &msg, Cycles resume_extra)
{
    Addr baddr = blockAlign(msg.addr);
    switch (msg.type) {
      case MsgType::ReadData: {
        SWEX_ASSERT(mshr.valid && blockAlign(mshr.addr) == baddr &&
                    mshr.type == MemOpType::Load,
                    "unexpected ReadData");
        if (!mshr.invalidated) {
            Eviction ev =
                cache.fill(baddr, LineState::Shared, msg.data);
            writebackEvicted(ev);
        }
        // An invalidated transaction still satisfies this one load
        // (our read was serialized before the conflicting write) but
        // must not install the line.
        Word value = msg.data.read(mshr.addr);
        missLatency.sample(static_cast<double>(
            node.eventq().curTick() - mshr.issued));
        mshr.valid = false;
        complete(value, cfg.fillLatency + resume_extra);
        return;
      }

      case MsgType::WriteData: {
        SWEX_ASSERT(mshr.valid && blockAlign(mshr.addr) == baddr &&
                    mshr.type != MemOpType::Load,
                    "unexpected WriteData");
        Eviction ev = cache.fill(baddr, LineState::Modified, msg.data);
        writebackEvicted(ev);
        CacheLine *line = cache.probeMain(baddr);
        Word old = line->data.read(mshr.addr);
        switch (mshr.type) {
          case MemOpType::Store:
            line->data.write(mshr.addr, mshr.operand);
            old = 0;
            break;
          case MemOpType::FetchAdd:
            line->data.write(mshr.addr, old + mshr.operand);
            break;
          case MemOpType::Swap:
            line->data.write(mshr.addr, mshr.operand);
            break;
          default:
            panic("bad mshr type");
        }
        missLatency.sample(static_cast<double>(
            node.eventq().curTick() - mshr.issued));
        mshr.valid = false;
        complete(old, cfg.fillLatency + resume_extra);
        return;
      }

      case MsgType::Busy: {
        SWEX_ASSERT(mshr.valid && blockAlign(mshr.addr) == baddr,
                    "busy reply with no transaction");
        ++busyRetries;
        ++mshr.retries;
        Cycles backoff = std::min<Cycles>(
            cfg.retryBase << std::min(mshr.retries, 8u), cfg.retryCap);
        backoff += rng.below(8);
        node.eventq().scheduleIn(retryEvent, backoff);
        return;
      }

      case MsgType::Inv: {
        ++invsReceived;
        if (mshr.valid && blockAlign(mshr.addr) == baddr &&
            mshr.type == MemOpType::Load) {
            // Window of vulnerability: poison the in-flight read so
            // the arriving data is consumed but not cached.
            mshr.invalidated = true;
        }
        RemovalResult r = cache.remove(baddr);
        SWEX_ASSERT(!r.wasDirty,
                    "invalidation hit a dirty line at %#llx",
                    static_cast<unsigned long long>(baddr));
        Message ack;
        ack.type = MsgType::InvAck;
        ack.src = node.id();
        ack.dst = msg.src;
        ack.addr = baddr;
        node.sendMsg(ack, cfg.hitLatency);
        return;
      }

      case MsgType::FetchS: {
        ++fetchesReceived;
        RemovalResult r = cache.downgrade(baddr);
        Message rep;
        rep.type = MsgType::FetchReply;
        rep.src = node.id();
        rep.dst = msg.src;
        rep.addr = baddr;
        rep.isWrite = false;
        rep.seq = msg.seq;
        if (r.wasPresent && r.wasDirty) {
            rep.hasData = true;
            rep.data = r.data;
        }
        // A clean (or absent) copy means this fetch is stale -- the
        // block was already written back or the transaction was
        // superseded; NACK and let the home's seq check sort it out.
        node.sendMsg(rep, cfg.hitLatency);
        return;
      }

      case MsgType::FetchI: {
        ++fetchesReceived;
        RemovalResult r = cache.remove(baddr);
        Message rep;
        rep.type = MsgType::FetchReply;
        rep.src = node.id();
        rep.dst = msg.src;
        rep.addr = baddr;
        rep.isWrite = true;
        rep.seq = msg.seq;
        if (r.wasPresent && r.wasDirty) {
            rep.hasData = true;
            rep.data = r.data;
        }
        node.sendMsg(rep, cfg.hitLatency);
        return;
      }

      default:
        panic("cache controller received %s", msg.describe().c_str());
    }
}

RemovalResult
CacheController::invalidateLocal(Addr block_addr)
{
    return cache.remove(block_addr);
}

RemovalResult
CacheController::downgradeLocal(Addr block_addr)
{
    return cache.downgrade(block_addr);
}

} // namespace swex
