/**
 * @file
 * Unit tests of the home-side controller driven directly through a
 * stub NodeServices: every protocol's hardware transitions, trap
 * decisions, software handler effects, and the window-of-
 * vulnerability machinery, observed message by message.
 */

#include <gtest/gtest.h>

#include <deque>

#include "core/home_controller.hh"

using namespace swex;

namespace
{

/** Captures everything the controller asks the node to do. */
struct StubNode : NodeServices
{
    struct Sent
    {
        Message msg;
        Cycles delay;
    };

    std::vector<Sent> sent;
    std::vector<TrapItem> traps;
    std::vector<Addr> trapsDone;   ///< blocks whose handlers ended
    MemoryModule memImpl;
    RemovalResult localCopy;   ///< what invalidateLocal reports

    void
    sendMsg(const Message &msg, Cycles delay) override
    {
        sent.push_back({msg, delay});
    }

    void raiseTrap(const TrapItem &item) override
    {
        traps.push_back(item);
    }

    RemovalResult
    invalidateLocal(Addr) override
    {
        RemovalResult r = localCopy;
        localCopy = RemovalResult{};
        return r;
    }

    RemovalResult downgradeLocal(Addr) override { return localCopy; }

    MemoryModule &memory() override { return memImpl; }

    void
    scheduleTrapDone(Cycles, HomeController &, Addr block_addr) override
    {
        trapsDone.push_back(block_addr);
    }

    /** Count sent messages of one type. */
    int
    countSent(MsgType t) const
    {
        int n = 0;
        for (const auto &s : sent)
            if (s.msg.type == t)
                ++n;
        return n;
    }

    const Message *
    lastOf(MsgType t) const
    {
        for (auto it = sent.rbegin(); it != sent.rend(); ++it)
            if (it->msg.type == t)
                return &it->msg;
        return nullptr;
    }
};

struct Harness
{
    explicit Harness(ProtocolConfig p, int nodes = 8,
                     NodeId home_id = 0)
        : home_cfg{p, HandlerProfile::FlexibleC, 10, 2, false},
          hc(home_id, nodes, home_cfg, node, nullptr)
    {
    }

    Message
    req(MsgType t, NodeId src, Addr a = 0x100)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.dst = 0;
        m.addr = a;
        return m;
    }

    /** Run every queued trap (as the processor would). */
    void
    runTraps()
    {
        while (!node.traps.empty()) {
            TrapItem item = node.traps.front();
            node.traps.erase(node.traps.begin());
            hc.runTrap(item);
            auto done = std::move(node.trapsDone);
            node.trapsDone.clear();
            for (Addr a : done)
                hc.trapDone(a);   // the handler's occupancy has ended
        }
    }

    StubNode node;
    HomeConfig home_cfg;
    HomeController hc;
};

} // anonymous namespace

// ------------------------------------------------------------------
// Hardware paths
// ------------------------------------------------------------------

TEST(HomeHw, ReadFillsPointersThenTraps)
{
    Harness h(ProtocolConfig::hw(2));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));
    EXPECT_EQ(h.node.countSent(MsgType::ReadData), 2);
    EXPECT_TRUE(h.node.traps.empty());

    // Third reader overflows: data still sent by hardware, trap
    // queued for the software to record the requester.
    h.hc.handleMessage(h.req(MsgType::ReadReq, 3));
    EXPECT_EQ(h.node.countSent(MsgType::ReadData), 3);
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::ReadOverflow);

    h.runTraps();
    const DirEntry *e = h.hc.dir.lookup(0x100);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->overflowed);
    EXPECT_EQ(e->ptrCount, 0);   // emptied into software
    ExtEntry *xe = h.hc.ext.lookup(0x100);
    ASSERT_NE(xe, nullptr);
    EXPECT_EQ(xe->sharerCount, 3u);
}

TEST(HomeHw, LocalBitSparesAPointer)
{
    Harness h(ProtocolConfig::hw(1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 0));   // home itself
    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    EXPECT_TRUE(h.node.traps.empty());   // bit + one pointer suffice
    const DirEntry *e = h.hc.dir.lookup(0x100);
    EXPECT_TRUE(e->localBit);
    EXPECT_TRUE(e->hasPtr(5));
}

TEST(HomeHw, WriteToSharedSendsHwInvsAndCollectsAcks)
{
    Harness h(ProtocolConfig::hw(3));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));
    h.node.sent.clear();

    h.hc.handleMessage(h.req(MsgType::WriteReq, 3));
    EXPECT_EQ(h.node.countSent(MsgType::Inv), 2);
    EXPECT_TRUE(h.node.traps.empty());   // all-hardware
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::PendWrite);

    h.hc.handleMessage(h.req(MsgType::InvAck, 1));
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 0);
    h.hc.handleMessage(h.req(MsgType::InvAck, 2));
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 1);
    const DirEntry *e = h.hc.dir.lookup(0x100);
    EXPECT_EQ(e->state, DirState::Exclusive);
    EXPECT_EQ(e->ptrs[0], 3);
}

TEST(HomeHw, WriteUpgradeByOnlySharerGrantsImmediately)
{
    Harness h(ProtocolConfig::hw(5));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 4));
    h.node.sent.clear();
    h.hc.handleMessage(h.req(MsgType::WriteReq, 4));
    EXPECT_EQ(h.node.countSent(MsgType::Inv), 0);
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 1);
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::Exclusive);
}

TEST(HomeHw, ReadOfDirtyBlockFetchesFromOwner)
{
    Harness h(ProtocolConfig::hw(5));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 2));
    h.node.sent.clear();

    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    ASSERT_EQ(h.node.countSent(MsgType::FetchS), 1);
    const Message *f = h.node.lastOf(MsgType::FetchS);
    EXPECT_EQ(f->dst, 2);
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::PendRead);

    // Owner answers with data: both end up sharers.
    Message rep = h.req(MsgType::FetchReply, 2);
    rep.seq = f->seq;
    rep.hasData = true;
    rep.data.write(0x100, 77);
    h.hc.handleMessage(rep);
    EXPECT_EQ(h.node.countSent(MsgType::ReadData), 1);
    const DirEntry *e = h.hc.dir.lookup(0x100);
    EXPECT_EQ(e->state, DirState::Shared);
    EXPECT_TRUE(e->hasPtr(2));
    EXPECT_TRUE(e->hasPtr(5));
    EXPECT_EQ(h.node.memImpl.readWord(0x100), 77u);
}

TEST(HomeHw, StaleFetchReplyIsDiscarded)
{
    Harness h(ProtocolConfig::hw(5));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 2));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    const Message *f = h.node.lastOf(MsgType::FetchS);
    ASSERT_NE(f, nullptr);

    Message stale = h.req(MsgType::FetchReply, 2);
    stale.seq = static_cast<std::uint8_t>(f->seq + 1);   // wrong tag
    stale.hasData = true;
    h.hc.handleMessage(stale);
    // Still pending: the stale reply must not complete the fetch.
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::PendRead);
}

TEST(HomeHw, NackedFetchIsRetried)
{
    Harness h(ProtocolConfig::hw(5));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 2));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    const Message *f = h.node.lastOf(MsgType::FetchS);

    Message nack = h.req(MsgType::FetchReply, 2);
    nack.seq = f->seq;
    nack.hasData = false;
    h.node.sent.clear();
    h.hc.handleMessage(nack);
    EXPECT_EQ(h.node.countSent(MsgType::FetchS), 1);   // re-fetch
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::PendRead);
}

TEST(HomeHw, WritebackCompletesPendingFetch)
{
    Harness h(ProtocolConfig::hw(5));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 2));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    h.node.sent.clear();

    Message wb = h.req(MsgType::Writeback, 2);
    wb.hasData = true;
    wb.data.write(0x100, 55);
    h.hc.handleMessage(wb);
    EXPECT_EQ(h.node.countSent(MsgType::ReadData), 1);
    const DirEntry *e = h.hc.dir.lookup(0x100);
    EXPECT_EQ(e->state, DirState::Shared);
    // The owner evicted: only the requester holds a copy.
    EXPECT_FALSE(e->hasPtr(2));
    EXPECT_TRUE(e->hasPtr(5));
    EXPECT_EQ(h.node.memImpl.readWord(0x100), 55u);
}

TEST(HomeHw, RequestsDuringTrapAreDeferredAndReplayed)
{
    Harness h(ProtocolConfig::hw(1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));   // overflow trap
    ASSERT_EQ(h.node.traps.size(), 1u);

    // While the trap is queued, another read arrives: no busy reply,
    // the request parks in the CMMU queue.
    h.node.sent.clear();
    h.hc.handleMessage(h.req(MsgType::ReadReq, 3));
    EXPECT_EQ(h.node.countSent(MsgType::Busy), 0);
    EXPECT_EQ(h.node.countSent(MsgType::ReadData), 0);

    // Handler completes -> the parked read replays (overflowing again
    // is fine: hardware sends the data and queues another trap).
    h.runTraps();
    EXPECT_EQ(h.node.countSent(MsgType::ReadData), 1);
}

// ------------------------------------------------------------------
// Software handlers
// ------------------------------------------------------------------

TEST(HomeSw, OverflowedWriteInvalidatesUnionOfHwAndSw)
{
    Harness h(ProtocolConfig::hw(2));
    for (NodeId n = 1; n <= 5; ++n)
        h.hc.handleMessage(h.req(MsgType::ReadReq, n));
    h.runTraps();
    ASSERT_TRUE(h.hc.dir.lookup(0x100)->overflowed);
    h.node.sent.clear();

    h.hc.handleMessage(h.req(MsgType::WriteReq, 6));
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::WriteOverflow);
    h.runTraps();
    EXPECT_EQ(h.node.countSent(MsgType::Inv), 5);
    EXPECT_EQ(h.hc.dir.lookup(0x100)->ackCount, 5u);
    EXPECT_EQ(h.hc.ext.numEntries(), 0u);   // released

    for (NodeId n = 1; n <= 5; ++n)
        h.hc.handleMessage(h.req(MsgType::InvAck, n));
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 1);
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::Exclusive);
}

TEST(HomeSw, LackProtocolTrapsOnLastAckOnly)
{
    Harness h(ProtocolConfig::h1Lack());
    h.hc.handleMessage(h.req(MsgType::ReadReq, 1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));
    h.runTraps();

    h.hc.handleMessage(h.req(MsgType::WriteReq, 3));
    h.runTraps();   // the write-overflow handler sends the invs
    EXPECT_EQ(h.node.countSent(MsgType::Inv), 2);

    h.node.traps.clear();
    h.hc.handleMessage(h.req(MsgType::InvAck, 1));
    EXPECT_TRUE(h.node.traps.empty());   // hw counts this one
    h.hc.handleMessage(h.req(MsgType::InvAck, 2));
    ASSERT_EQ(h.node.traps.size(), 1u);  // last ack traps
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::LastAck);
    h.runTraps();
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 1);
}

TEST(HomeSw, AckProtocolTrapsOnEveryAck)
{
    Harness h(ProtocolConfig::h1Ack());
    h.hc.handleMessage(h.req(MsgType::ReadReq, 1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));
    h.runTraps();
    h.hc.handleMessage(h.req(MsgType::WriteReq, 3));
    h.runTraps();
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::SwPendWrite);

    h.node.traps.clear();
    h.hc.handleMessage(h.req(MsgType::InvAck, 1));
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::EveryAck);
    h.runTraps();
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 0);

    // A request during the software-pending write gets a software
    // busy reply (the hardware pointer is unused: the ACK pathology).
    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::SwBusy);
    h.runTraps();
    EXPECT_EQ(h.node.countSent(MsgType::Busy), 1);

    h.hc.handleMessage(h.req(MsgType::InvAck, 2));
    h.runTraps();
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 1);
}

TEST(HomeSw, Dir1swBroadcastsOnWriteAfterUntrackedCopies)
{
    Harness h(ProtocolConfig::dir1sw());
    // Reads beyond the single pointer do NOT trap (the B protocols').
    for (NodeId n = 1; n <= 4; ++n)
        h.hc.handleMessage(h.req(MsgType::ReadReq, n));
    EXPECT_TRUE(h.node.traps.empty());
    EXPECT_TRUE(h.hc.dir.lookup(0x100)->broadcastBit);

    h.hc.handleMessage(h.req(MsgType::WriteReq, 5));
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::WriteBroadcast);
    h.node.sent.clear();
    h.runTraps();
    // Broadcast: every node except the requester and the home.
    EXPECT_EQ(h.node.countSent(MsgType::Inv), 6);
}

TEST(HomeSw, H0UniprocessorPathUntilRemoteTouch)
{
    Harness h(ProtocolConfig::h0());
    // Local accesses while the remote-touched bit is clear: no traps.
    h.hc.handleMessage(h.req(MsgType::ReadReq, 0));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 0));
    EXPECT_TRUE(h.node.traps.empty());

    // First remote access: trap; the handler sets the bit and flushes
    // the (dirty) local copy into memory before serving.
    h.node.localCopy.wasPresent = true;
    h.node.localCopy.wasDirty = true;
    h.node.localCopy.data.write(0x100, 99);
    h.hc.handleMessage(h.req(MsgType::ReadReq, 3));
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::SwRequest);
    h.runTraps();
    EXPECT_TRUE(h.hc.dir.lookup(0x100)->remoteTouched);
    EXPECT_EQ(h.node.memImpl.readWord(0x100), 99u);
    const Message *d = h.node.lastOf(MsgType::ReadData);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->data.read(0x100), 99u);

    // Now even local accesses trap.
    h.node.traps.clear();
    h.hc.handleMessage(h.req(MsgType::ReadReq, 0));
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::SwRequest);
}

TEST(HomeSw, HandlerCyclesMatchCostModel)
{
    Harness h(ProtocolConfig::hw(5));
    for (NodeId n = 1; n <= 6; ++n)
        h.hc.handleMessage(h.req(MsgType::ReadReq, n));
    ASSERT_EQ(h.node.traps.size(), 1u);
    TrapItem item = h.node.traps[0];
    h.node.traps.clear();
    Cycles c = h.hc.runTrap(item);
    // Table 2's C read median: 480 cycles (6 pointers stored).
    EXPECT_NEAR(static_cast<double>(c), 480, 5);
}

TEST(HomeSw, FullMapNeverTraps)
{
    Harness h(ProtocolConfig::fullMap());
    for (NodeId n = 0; n < 8; ++n)
        h.hc.handleMessage(h.req(MsgType::ReadReq, n));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 3));
    // Full-map tracks the home with a bit too, so it acks its own
    // loopback invalidation like any sharer: 7 acks expected.
    for (NodeId n = 0; n < 8; ++n)
        if (n != 3)
            h.hc.handleMessage(h.req(MsgType::InvAck, n));
    EXPECT_TRUE(h.node.traps.empty());
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::Exclusive);
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 1);
}
