/**
 * @file
 * Layer microbenchmarks, reported as per-layer metrics of the traced
 * run: the substrates bench/micro_substrates also covers (event
 * queue, cache, extended directory, mesh), plus the two paths it
 * lacks — the home controller's hardware request and software trap
 * paths, and the result cache's lookup and store.
 *
 * Each bench repeats a batch until it has run for a minimum time,
 * five times over, and reports the median host nanoseconds per
 * operation.
 */

#include <algorithm>
#include <filesystem>
#include <functional>

#include "base/logging.hh"
#include "base/rng.hh"
#include "bench.hh"
#include "core/ext_directory.hh"
#include "core/home_controller.hh"
#include "exp/runner.hh"
#include "mem/cache.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"

using namespace swex;

namespace swexbench
{

namespace
{

/**
 * Median ns per operation of @p batch, which performs @p ops
 * operations per call, over five samples of at least 20 ms each.
 */
double
nsPerOp(const std::function<void()> &batch, double ops)
{
    batch();   // warm
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        double n = 0;
        auto t0 = Clock::now();
        double dt = 0;
        do {
            batch();
            n += ops;
            dt = secondsBetween(t0, Clock::now());
        } while (dt < 0.02);
        samples.push_back(dt * 1e9 / n);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

struct CountEvent final : Event
{
    void process() override { ++*sink; }

    int *sink = nullptr;
};

/** The protocol benches' delay mix, through intrusive events. */
double
eventQueueNs()
{
    constexpr int batch = 1000;
    std::vector<Cycles> delays(batch);
    Rng rng(7);
    for (Cycles &d : delays) {
        std::uint64_t pick = rng.below(10);
        d = pick < 7 ? 1 + rng.below(20)
                     : pick < 9 ? 100 + rng.below(800)
                                : 2000 + rng.below(6000);
    }
    EventQueue eq;
    int sink = 0;
    std::vector<CountEvent> events(batch);
    for (CountEvent &e : events)
        e.sink = &sink;
    return nsPerOp([&] {
        for (int i = 0; i < batch; ++i)
            eq.scheduleIn(events[static_cast<std::size_t>(i)],
                          delays[static_cast<std::size_t>(i)]);
        eq.run();
    }, batch);
}

double
cacheNs()
{
    stats::Group g;
    Cache cache(64 * 1024, 6, &g);
    Rng rng(1);
    return nsPerOp([&] {
        for (int i = 0; i < 1000; ++i) {
            Addr a = blockAlign(rng.below(1 << 22));
            cache.fill(a, LineState::Shared, DataBlock{});
            bool vh = false;
            cache.access(a, vh);
        }
    }, 1000);
}

double
extDirectoryNs()
{
    stats::Group g;
    ExtDirectory ext(&g);
    Rng rng(2);
    return nsPerOp([&] {
        for (int i = 0; i < 100; ++i) {
            Addr a = blockAlign(rng.below(1 << 20));
            ExtEntry &e = ext.alloc(a);
            for (NodeId n = 0; n < 20; ++n)
                ext.addSharer(e, n);
            ext.release(a);
        }
    }, 100);
}

double
meshNs()
{
    struct NullSink : MsgReceiver
    {
        void receiveMessage(const Message &) override {}
    };
    EventQueue eq;
    stats::Group g;
    MeshNetwork net(eq, 64, NetworkConfig{}, &g);
    NullSink sink;
    for (int i = 0; i < 64; ++i)
        net.setReceiver(i, &sink);
    Rng rng(3);
    return nsPerOp([&] {
        for (int i = 0; i < 100; ++i) {
            Message m;
            m.type = MsgType::ReadReq;
            m.src = static_cast<NodeId>(rng.below(64));
            m.dst = static_cast<NodeId>(rng.below(64));
            m.addr = 0x100;
            net.send(m);
            eq.run();
        }
    }, 100);
}

/**
 * A home node stripped to its controller: sends are counted and
 * dropped, traps run as soon as the "processor" polls, and scheduled
 * handler completions run right after the handler.
 */
struct LoopbackNode : NodeServices
{
    std::vector<TrapItem> traps;
    std::vector<std::function<void()>> scheduled;
    MemoryModule mem;
    std::uint64_t writeGrants = 0;

    void
    sendMsg(const Message &msg, Cycles) override
    {
        if (msg.type == MsgType::WriteData)
            ++writeGrants;
    }

    void raiseTrap(const TrapItem &item) override { traps.push_back(item); }
    RemovalResult invalidateLocal(Addr) override { return {}; }
    RemovalResult downgradeLocal(Addr) override { return {}; }
    MemoryModule &memory() override { return mem; }

    void
    schedule(Cycles, std::function<void()> fn) override
    {
        scheduled.push_back(std::move(fn));
    }

    void
    runTraps(HomeController &hc)
    {
        while (!traps.empty()) {
            TrapItem item = traps.front();
            traps.erase(traps.begin());
            hc.runTrap(item);
            auto fns = std::move(scheduled);
            scheduled.clear();
            for (auto &fn : fns)
                fn();
        }
    }
};

/**
 * One block's life at its home under @p proto: nodes 1..@p readers
 * read it, node 7 writes it (the home invalidates the readers and
 * collects their acknowledgments), then writes it back, leaving the
 * block uncached. Lives rotate over 256 blocks.
 * @return {ns per message handled, ns per trap raised}.
 */
std::pair<double, double>
homeNs(ProtocolConfig proto, NodeId readers)
{
    LoopbackNode node;
    HomeConfig cfg{proto, HandlerProfile::FlexibleC, 10, 2, false};
    HomeController hc(0, 16, cfg, node, nullptr);
    Addr next = 0;
    std::uint64_t lives = 0;
    auto msg = [&](MsgType type, NodeId src, Addr a) {
        Message m;
        m.type = type;
        m.src = src;
        m.dst = 0;
        m.addr = a;
        m.hasData = type == MsgType::Writeback;
        hc.handleMessage(m);
        node.runTraps(hc);
    };
    auto life = [&] {
        Addr a = next;
        next = (next + blockBytes) % (256 * blockBytes);
        for (NodeId n = 1; n <= readers; ++n)
            msg(MsgType::ReadReq, n, a);
        msg(MsgType::WriteReq, 7, a);
        for (NodeId n = 1; n <= readers; ++n)
            msg(MsgType::InvAck, n, a);
        msg(MsgType::Writeback, 7, a);
        ++lives;
    };
    life();
    double traps0 = hc.trapsRaised.value();
    life();
    const double traps_per_life = hc.trapsRaised.value() - traps0;
    const double msgs_per_life = 2.0 * readers + 2;
    double ns_per_life = nsPerOp([&] {
        for (int i = 0; i < 64; ++i)
            life();
    }, 64);
    hc.checkInvariants();
    if (node.writeGrants != lives)
        fatal("home microbench: %llu write grants for %llu block lives",
              static_cast<unsigned long long>(node.writeGrants),
              static_cast<unsigned long long>(lives));
    return {ns_per_life / msgs_per_life,
            traps_per_life > 0 ? ns_per_life / traps_per_life : 0};
}

} // anonymous namespace

std::vector<std::pair<std::string, double>>
runMicrobenches(const std::string &scratch_dir)
{
    std::vector<std::pair<std::string, double>> out;
    out.emplace_back("sim.eventq.event_ns", eventQueueNs());
    out.emplace_back("mem.cache.fill_access_ns", cacheNs());
    out.emplace_back("core.extdir.churn_ns", extDirectoryNs());
    out.emplace_back("net.mesh.inject_ns", meshNs());
    // Hardware path: four readers fit in H5's pointers, so no trap.
    out.emplace_back("core.home.request_ns",
                     homeNs(ProtocolConfig::hw(5), 4).first);
    // Trap path: the software-only directory traps on every request.
    out.emplace_back("core.home.trap_ns",
                     homeNs(ProtocolConfig::h0(), 4).second);

    // Result cache: one real record (a small WORKER run), stored and
    // served over and over under one key.
    ExperimentSpec spec;
    spec.id = "micro/cache";
    spec.app = "worker";
    spec.params = {{"wss", "8"}};
    RunRecord rec = Runner(false).execute(spec);
    std::filesystem::create_directories(scratch_dir);
    cache::ResultCache rc(scratch_dir);
    std::string err;
    out.emplace_back("exp.cache.store_ns", nsPerOp([&] {
        if (!rc.store(spec, rec, err))
            fatal("micro cache store: %s", err.c_str());
    }, 1));
    RunRecord got;
    out.emplace_back("exp.cache.lookup_ns", nsPerOp([&] {
        if (!rc.lookup(spec, got))
            fatal("micro cache lookup missed");
    }, 1));
    return out;
}

} // namespace swexbench
