#include "machine/node.hh"

#include "base/logging.hh"
#include "machine/directory_backend.hh"
#include "machine/machine.hh"

namespace swex
{

namespace
{

ProcessorConfig
procConfig(const MachineConfig &mc)
{
    ProcessorConfig pc;
    pc.perfectIfetch = mc.perfectIfetch;
    if (mc.machineModel == MachineModel::Snoop) {
        // No software-extension traps on the bus path, hence nothing
        // for the watchdog to flush.
        pc.watchdog = false;
    } else {
        pc.watchdog = mc.watchdog < 0 ? mc.protocol.needsWatchdog()
                                      : mc.watchdog != 0;
    }
    return pc;
}

} // anonymous namespace

Node::Node(Machine &machine, NodeId id)
    : statsGroup(&machine.root, strfmt("node%d", static_cast<int>(id))),
      mem(machine.nodeBase(id), machine.config().segBytes),
      proc(*this, procConfig(machine.config()), &statsGroup),
      _machine(machine), _id(id)
{
    coh = machine.backend->makeNode(*this);
}

CacheController &
Node::cacheCtrl()
{
    auto *d = dynamic_cast<DirectoryNodeCoherence *>(coh.get());
    SWEX_ASSERT(d, "cacheCtrl() on a non-directory machine model");
    return d->cacheCtrl;
}

const CacheController &
Node::cacheCtrl() const
{
    return const_cast<Node *>(this)->cacheCtrl();
}

HomeController &
Node::home()
{
    auto *d = dynamic_cast<DirectoryNodeCoherence *>(coh.get());
    SWEX_ASSERT(d, "home() on a non-directory machine model");
    return d->homeCtrl;
}

const HomeController &
Node::home() const
{
    return const_cast<Node *>(this)->home();
}

EventQueue &
Node::eventq()
{
    return _machine.eventq;
}

void
Node::sendMsg(const Message &msg, Cycles delay)
{
    // The backend gets first claim: the directory model applies local
    // grants and uniprocessor-mode local writebacks synchronously.
    if (coh->interceptSend(msg, delay))
        return;

    if (delay == 0) {
        _machine.network.send(msg);
    } else {
        PooledMsgEvent &ev = _machine.network.msgPool().acquire(
            this, &Node::delayedSendHandler, EventPrio::Controller);
        ev.msg = msg;
        eventq().scheduleIn(ev, delay);
    }
}

void
Node::delayedSendHandler(void *ctx, Message &msg)
{
    Node *node = static_cast<Node *>(ctx);
    node->_machine.network.send(msg);
}

void
Node::receiveMessage(const Message &msg)
{
    // Receive-side occupancy: the CMMU drains its input queue one
    // message at a time.
    Tick now = eventq().curTick();
    Tick start = std::max(now, rxFreeAt);
    rxFreeAt = start + _machine.config().rxOccupancy;
    PooledMsgEvent &ev = _machine.network.msgPool().acquire(
        this, &Node::rxDispatchHandler, EventPrio::Controller);
    ev.msg = msg;
    eventq().schedule(ev, rxFreeAt);
}

void
Node::rxDispatchHandler(void *ctx, Message &msg)
{
    static_cast<Node *>(ctx)->dispatchRx(msg);
}

void
Node::dispatchRx(const Message &msg)
{
    coh->dispatchRx(msg);
}

void
Node::raiseTrap(const TrapItem &item)
{
    proc.raiseTrap(item);
}

RemovalResult
Node::invalidateLocal(Addr block_addr)
{
    return coh->invalidateLocal(block_addr);
}

RemovalResult
Node::downgradeLocal(Addr block_addr)
{
    return coh->downgradeLocal(block_addr);
}

void
Node::scheduleTrapDone(Cycles delay, HomeController &hc, Addr block_addr)
{
    // A pooled event carries the block address, as a delayed send
    // carries its message: no std::function on the trap path.
    PooledMsgEvent &ev = _machine.network.msgPool().acquire(
        &hc, &Node::trapDoneHandler, EventPrio::Controller);
    ev.msg = Message{};
    ev.msg.addr = block_addr;
    eventq().scheduleIn(ev, delay);
}

void
Node::trapDoneHandler(void *ctx, Message &msg)
{
    static_cast<HomeController *>(ctx)->trapDone(msg.addr);
}

} // namespace swex
