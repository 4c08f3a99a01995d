/**
 * @file
 * Google-benchmark microbenchmarks of the simulator substrates: event
 * queue throughput (callback shim, intrusive events, spill heap, and
 * a fig2-like delay mix), message pooling, cache lookup/fill and
 * victim swaps, directory entry lookup, extended-directory
 * operations, network injection, a snoop bus transaction, a
 * whole-machine WORKER iteration, the fixed host cost of a sweep
 * cell outside its run, and a result-cache hit. These track the
 * host-side performance of the simulator itself.
 *
 * Besides the console table, results are merged into
 * BENCH_SUBSTRATES.json (override with SWEX_BENCH_JSON) so the
 * repository carries a machine-readable performance trajectory.
 */

#include <benchmark/benchmark.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "apps/registry.hh"
#include "apps/worker.hh"
#include "base/rng.hh"
#include "bench_support.hh"
#include "core/directory.hh"
#include "core/ext_directory.hh"
#include "exp/cache/result_cache.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "machine/mem_api.hh"
#include "machine/snoop.hh"
#include "net/message_pool.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"

using namespace swex;

namespace
{

constexpr int batch = 1000;   ///< events per measured batch

void
addEventRate(benchmark::State &state)
{
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * batch,
        benchmark::Counter::kIsRate);
}

/**
 * Cold-path throughput through the std::function shim: each
 * iteration pays queue construction (wheel init, pool warm-up) on
 * top of the schedule/run work, as a fresh Machine would.
 */
void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < batch; ++i)
            eq.schedule(static_cast<Tick>(i % 97), [&] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    addEventRate(state);
}
BENCHMARK(BM_EventQueueScheduleRun);

/**
 * Steady-state shim throughput: one long-lived queue, as in an
 * application run (one EventQueue per Machine, millions of events).
 */
void
BM_EventQueueWarm(benchmark::State &state)
{
    EventQueue eq;
    int sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i)
            eq.scheduleIn(static_cast<Cycles>(i % 97), [&] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    addEventRate(state);
}
BENCHMARK(BM_EventQueueWarm);

struct CountEvent final : Event
{
    void process() override { ++*sink; }

    int *sink = nullptr;
};

/** The allocation-free component path: statically-owned events. */
void
BM_EventQueueIntrusive(benchmark::State &state)
{
    EventQueue eq;
    int sink = 0;
    std::vector<CountEvent> events(batch);
    for (CountEvent &e : events)
        e.sink = &sink;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i)
            eq.scheduleIn(events[static_cast<std::size_t>(i)],
                          static_cast<Cycles>(i % 97));
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    addEventRate(state);
}
BENCHMARK(BM_EventQueueIntrusive);

/** Delays beyond the wheel horizon: everything takes the spill heap. */
void
BM_EventQueueFarFuture(benchmark::State &state)
{
    EventQueue eq;
    int sink = 0;
    std::vector<CountEvent> events(batch);
    for (CountEvent &e : events)
        e.sink = &sink;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            eq.scheduleIn(events[static_cast<std::size_t>(i)],
                          EventQueue::wheelSize +
                              static_cast<Cycles>((i * 37) % 4096));
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    addEventRate(state);
}
BENCHMARK(BM_EventQueueFarFuture);

/**
 * A delay mix shaped like the protocol benches: mostly 1-20 cycle
 * network/controller latencies, some 100-900 cycle compute segments,
 * a tail of multi-thousand-cycle waits that spill to the heap.
 */
void
BM_EventQueueMixedDelays(benchmark::State &state)
{
    std::vector<Cycles> delays(batch);
    Rng rng(7);
    for (Cycles &d : delays) {
        std::uint64_t pick = rng.below(10);
        if (pick < 7)
            d = 1 + rng.below(20);
        else if (pick < 9)
            d = 100 + rng.below(800);
        else
            d = 2000 + rng.below(6000);
    }
    EventQueue eq;
    int sink = 0;
    std::vector<CountEvent> events(batch);
    for (CountEvent &e : events)
        e.sink = &sink;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            eq.scheduleIn(events[static_cast<std::size_t>(i)],
                          delays[static_cast<std::size_t>(i)]);
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    addEventRate(state);
}
BENCHMARK(BM_EventQueueMixedDelays);

/** Message send/deliver through the free-list message pool. */
void
BM_MessagePoolSendRecv(benchmark::State &state)
{
    EventQueue eq;
    MessagePool pool;
    int delivered = 0;
    auto handler = +[](void *ctx, Message &) {
        ++*static_cast<int *>(ctx);
    };
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            PooledMsgEvent &ev = pool.acquire(&delivered, handler,
                                              EventPrio::Network);
            ev.msg.type = MsgType::ReadReq;
            ev.msg.addr = static_cast<Addr>(i) << 4;
            eq.scheduleIn(ev, static_cast<Cycles>(i % 13));
        }
        eq.run();
        benchmark::DoNotOptimize(delivered);
    }
    addEventRate(state);
    state.counters["pool_events"] =
        static_cast<double>(pool.capacity());
}
BENCHMARK(BM_MessagePoolSendRecv);

void
BM_CacheFillAccess(benchmark::State &state)
{
    stats::Group g;
    Cache cache(64 * 1024, 6, &g);
    Rng rng(1);
    for (auto _ : state) {
        Addr a = blockAlign(rng.below(1 << 22));
        cache.fill(a, LineState::Shared, DataBlock{});
        bool vh = false;
        benchmark::DoNotOptimize(cache.access(a, vh));
    }
}
BENCHMARK(BM_CacheFillAccess);

/**
 * Victim-buffer hits: seven blocks share one set, one in the set and
 * six parked in the buffer, and every access swaps a parked block
 * back in from a different FIFO position.
 */
void
BM_CacheVictimSwap(benchmark::State &state)
{
    stats::Group g;
    Cache cache(64 * 1024, 6, &g);
    constexpr Addr stride = 64 * 1024;   // same set, next tag
    for (Addr i = 0; i < 7; ++i)
        cache.fill(i * stride, LineState::Shared, DataBlock{});
    Addr next = 0;
    for (auto _ : state) {
        bool vh = false;
        benchmark::DoNotOptimize(cache.access(next * stride, vh));
        next = (next + 3) % 7;
    }
}
BENCHMARK(BM_CacheVictimSwap);

/** The home controller's per-message DirEntry lookup: a 64 KB heap
 *  of touched blocks (as an app allocates them), hit at random. */
void
BM_DirectoryEntryLookup(benchmark::State &state)
{
    Directory dir;
    constexpr Addr blocks = 4096;
    for (Addr i = 0; i < blocks; ++i)
        dir.entry(i * blockBytes);
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            &dir.entry(rng.below(blocks) * blockBytes));
    }
}
BENCHMARK(BM_DirectoryEntryLookup);

void
BM_ExtDirectoryChurn(benchmark::State &state)
{
    stats::Group g;
    ExtDirectory ext(&g);
    Rng rng(2);
    for (auto _ : state) {
        Addr a = blockAlign(rng.below(1 << 20));
        ExtEntry &e = ext.alloc(a);
        for (NodeId n = 0; n < 20; ++n)
            ext.addSharer(e, n);
        ext.release(a);
    }
}
BENCHMARK(BM_ExtDirectoryChurn);

void
BM_MeshInjection(benchmark::State &state)
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
    for (auto _ : state) {
        Message m;
        m.type = MsgType::ReadReq;
        m.src = static_cast<NodeId>(rng.below(64));
        m.dst = static_cast<NodeId>(rng.below(64));
        m.addr = 0x100;
        net.send(m);
        eq.run();
    }
}
BENCHMARK(BM_MeshInjection);

void
BM_WorkerIteration16(benchmark::State &state)
{
    setQuiet(true);
    double cycles = 0;
    double events = 0;
    for (auto _ : state) {
        MachineConfig mc;
        mc.numNodes = 16;
        mc.protocol = ProtocolConfig::hw(5);
        Machine m(mc);
        WorkerConfig wc;
        wc.workerSetSize = 8;
        wc.iterations = 2;
        WorkerApp app(wc);
        Tick t = app.runParallel(m);
        benchmark::DoNotOptimize(t);
        cycles += static_cast<double>(t);
        events += static_cast<double>(m.eventq.numExecuted());
    }
    state.counters["sim_cycles_per_sec"] =
        benchmark::Counter(cycles, benchmark::Counter::kIsRate);
    state.counters["events_per_sec"] =
        benchmark::Counter(events, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WorkerIteration16)->Unit(benchmark::kMillisecond);

/**
 * Snoop bus transactions in steady state on a 64-node MESI bus. Each
 * round, every node reads its neighbour's block (a shared read that
 * the neighbour's dirty copy supplies) and then writes its own (an
 * upgrade that invalidates the neighbour's copy): 128 transactions a
 * round, each with one or two peer copies among 63 peers. One
 * iteration runs eight rounds on a machine built once.
 */
void
BM_SnoopBusTransaction(benchmark::State &state)
{
    setQuiet(true);
    constexpr int nodes = 64;
    constexpr int rounds = 8;
    MachineConfig mc;
    mc.numNodes = nodes;
    mc.machineModel = MachineModel::Snoop;
    mc.snoopProtocol = SnoopProtocol::Mesi;
    mc.withVictimCache(6);
    Machine m(mc);
    std::vector<Addr> blocks;
    for (int n = 0; n < nodes; ++n)
        blocks.push_back(m.allocOn(n, blockBytes, blockBytes));
    auto program = [&blocks](Mem &mem, int tid) -> Task<void> {
        const auto self = static_cast<std::size_t>(tid);
        const Addr next = blocks[(self + 1) % nodes];
        for (int r = 0; r < rounds; ++r) {
            co_await mem.read(next);
            co_await mem.hwBarrier();
            co_await mem.write(blocks[self], static_cast<Word>(r));
            co_await mem.hwBarrier();
        }
    };
    const auto &bus = dynamic_cast<const SnoopBackend &>(*m.backend);
    m.run(program);   // warm-up: every block cached, every line dirty
    const double before = bus.transactions.value();
    for (auto _ : state)
        benchmark::DoNotOptimize(m.run(program));
    const double txns = bus.transactions.value() - before;
    state.counters["bus_txns_per_sec"] =
        benchmark::Counter(txns, benchmark::Counter::kIsRate);
    state.counters["bus_txns_per_iter"] =
        txns / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SnoopBusTransaction)->Unit(benchmark::kMicrosecond);

/**
 * What a sweep cell pays around Machine::run, with no run: build a
 * 64-node directory machine as Figure 4 does (victim caching on),
 * construct MP3D and set it up, check the machine's invariants, hash
 * its memory image, and render both statistics dumps. The per-step
 * counters are mean nanoseconds per iteration.
 */
void
BM_CellFixedCost(benchmark::State &state)
{
    setQuiet(true);
    ExperimentSpec spec;
    spec.app = "mp3d";
    spec.nodes = 64;
    spec.victimEntries = 6;
    const MachineConfig mc = spec.machine();
    using Clock = std::chrono::steady_clock;
    double build = 0, make = 0, setup = 0, check = 0, hash = 0,
           dump = 0;
    auto lap = [](Clock::time_point &t, double &into) {
        const Clock::time_point now = Clock::now();
        into += std::chrono::duration<double, std::nano>(now - t).count();
        t = now;
    };
    for (auto _ : state) {
        Clock::time_point t = Clock::now();
        Machine m(mc);
        lap(t, build);
        auto app = AppRegistry::instance().make(spec.app, spec.params,
                                                spec.nodes);
        lap(t, make);
        app->setup(m);
        lap(t, setup);
        m.checkInvariants();
        lap(t, check);
        benchmark::DoNotOptimize(m.imageHash());
        lap(t, hash);
        std::string json, text;
        m.root.dumpJson(json);
        m.root.dump(text);
        benchmark::DoNotOptimize(json.size() + text.size());
        lap(t, dump);
    }
    const auto n = static_cast<double>(state.iterations());
    state.counters["build_ns"] = build / n;
    state.counters["make_ns"] = make / n;
    state.counters["setup_ns"] = setup / n;
    state.counters["check_invariants_ns"] = check / n;
    state.counters["image_hash_ns"] = hash / n;
    state.counters["stats_dump_ns"] = dump / n;
}
BENCHMARK(BM_CellFixedCost)->Unit(benchmark::kMillisecond);

/**
 * A warm result-cache hit: repeated lookups of one stored 64-node
 * WORKER record (wss 16, as bench/fig_cache_sweep's first row), the
 * unit cost of every cell a cached re-sweep serves. Each lookup
 * reads, checksums and rehydrates the whole entry.
 */
void
BM_ResultCacheLookup(benchmark::State &state)
{
    setQuiet(true);
    char dir_template[] = "/tmp/swex-micro-cache-XXXXXX";
    const char *dir = ::mkdtemp(dir_template);
    if (dir == nullptr) {
        state.SkipWithError("cannot create a cache scratch directory");
        return;
    }
    const ExperimentSpec spec{.id = "micro/cache/W16",
                              .app = "worker",
                              .params = {{"wss", "16"},
                                         {"iterations", "10"}},
                              .nodes = 64,
                              .victimEntries = 6};
    {
        cache::ResultCache rcache(dir);
        Runner runner(false);
        runner.attachCache(&rcache);
        runner.execute(spec);
        const std::string path = rcache.entryPath(spec);
        RunRecord out;
        if (!rcache.lookup(spec, out)) {
            state.SkipWithError("the stored record did not load");
        } else {
            for (auto _ : state) {
                rcache.lookup(spec, out);
                benchmark::DoNotOptimize(out.simCycles);
            }
            struct stat st;
            const double bytes =
                ::stat(path.c_str(), &st) == 0
                    ? static_cast<double>(st.st_size) : 0.0;
            state.counters["entry_bytes"] = bytes;
            state.SetBytesProcessed(
                static_cast<std::int64_t>(bytes) * state.iterations());
        }
        std::remove(path.c_str());
    }
    ::rmdir(dir);
}
BENCHMARK(BM_ResultCacheLookup)->Unit(benchmark::kMicrosecond);

/**
 * Console output as usual, plus every finished run recorded into the
 * JSON trajectory. Counters reach the reporter already finalized
 * (rates divided by elapsed time), so they can be stored verbatim.
 */
class JsonReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        for (const Run &r : runs) {
            if (r.run_type != Run::RT_Iteration || r.error_occurred)
                continue;
            std::vector<std::pair<std::string, double>> m;
            m.emplace_back("ns_per_op",
                           r.iterations > 0
                               ? r.real_accumulated_time * 1e9 /
                                     static_cast<double>(r.iterations)
                               : 0.0);
            m.emplace_back("iterations",
                           static_cast<double>(r.iterations));
            for (const auto &[name, counter] : r.counters)
                m.emplace_back(name, counter.value);
            traj.record(r.benchmark_name(), std::move(m));
        }
    }

    swex::bench::JsonTrajectory traj;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    JsonReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    reporter.traj.record("micro_substrates",
                         {{"peak_rss_kb",
                           static_cast<double>(
                               swex::bench::peakRssKb())}});
    if (!reporter.traj.updateFile("BENCH_SUBSTRATES.json"))
        std::fprintf(stderr, "warning: could not write bench JSON\n");
    benchmark::Shutdown();
    return 0;
}
