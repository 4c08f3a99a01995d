/**
 * @file
 * The traced run: each cell is driven through the same public calls
 * Runner::execute makes, with a span around every call into a layer,
 * and the deterministic counters of each machine's stats tree are
 * summed per pass. Spans stay in memory and are written once, as
 * Chrome trace-event JSON, when the benchmark ends.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "apps/app.hh"
#include "bench.hh"
#include "core/home_controller.hh"
#include "exp/runner.hh"
#include "machine/node.hh"

using namespace swex;

namespace swexbench
{

int
Tracer::open(std::string name, std::string layer, std::string cell)
{
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.cell = std::move(cell);
    s.parent = stack.empty() ? -1 : stack.back();
    s.start = secondsBetween(epoch, Clock::now());
    _spans.push_back(std::move(s));
    stack.push_back(static_cast<int>(_spans.size()) - 1);
    return stack.back();
}

void
Tracer::close(int id)
{
    Span &s = _spans[static_cast<std::size_t>(id)];
    s.end = secondsBetween(epoch, Clock::now());
    stack.pop_back();
    if (s.parent >= 0)
        _spans[static_cast<std::size_t>(s.parent)].childTime +=
            s.end - s.start;
}

std::map<std::string, double>
Tracer::selfByLayer(std::size_t first) const
{
    std::map<std::string, double> out;
    for (std::size_t i = first; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        out[s.layer] += (s.end - s.start) - s.childTime;
    }
    return out;
}

double
Tracer::totalOf(const std::string &name, std::size_t first) const
{
    double sum = 0;
    for (std::size_t i = first; i < _spans.size(); ++i) {
        if (_spans[i].name == name)
            sum += _spans[i].end - _spans[i].start;
    }
    return sum;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    // One track (tid) per layer, in first-appearance order.
    std::map<std::string, int> tracks;
    std::vector<std::string> order;
    for (const Span &s : _spans) {
        if (tracks.emplace(s.layer, static_cast<int>(order.size())).second)
            order.push_back(s.layer);
    }
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    f << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"swexbench\"}}";
    for (std::size_t i = 0; i < order.size(); ++i) {
        f << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << i
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
          << order[i] << "\"}}";
    }
    char buf[64];
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        f << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << tracks[s.layer]
          << ",\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
          << "\"";
        std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                      s.start * 1e6, (s.end - s.start) * 1e6);
        f << buf << ",\"args\":{\"cell\":\"" << s.cell
          << "\",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    f << "\n]}\n";
    f.flush();
    return static_cast<bool>(f);
}

namespace
{

/** RAII span: open on construction, close on scope exit. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, const char *layer,
          const std::string &cell)
        : tracer(t), id(t.open(name, layer, cell))
    {
    }
    ~Scope() { tracer.close(id); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer;
    int id;
};

double
rootScalar(const Machine &m, const char *path)
{
    const auto *s =
        dynamic_cast<const stats::Scalar *>(m.root.find(path));
    return s != nullptr ? s->value() : 0;
}

void
countMachine(const Machine &m, LayerCounters &c)
{
    c.events += static_cast<double>(m.eventq.numExecuted());
    c.memOps += m.sumStat("proc.memOps");
    c.memStallCycles += m.sumStat("proc.memStallCycles");
    double hits = m.sumStat("cachectrl.cache.dataHits") +
                  m.sumStat("cachectrl.cache.instrHits");
    double misses = m.sumStat("cachectrl.cache.dataMisses") +
                    m.sumStat("cachectrl.cache.instrMisses");
    c.cacheAccesses += hits + misses;
    c.cacheMisses += misses;
    c.victimHits += m.sumStat("cachectrl.cache.victimHits");
    c.hwHandled += m.sumStat("home.hwHandled");
    c.traps += m.sumStat("home.trapsRaised");
    c.handlerCycles += m.sumStat("home.handlerCycles");
    c.extEntries += m.sumStat("home.extdir.entriesAllocated");
    c.messages += rootScalar(m, "network.msgCount");
    c.flits += rootScalar(m, "network.flitCount");
    if (const auto *d = dynamic_cast<const stats::Distribution *>(
            m.root.find("network.txQueueWait"))) {
        c.txWaitSum += d->sum();
        c.txWaitCount += static_cast<double>(d->count());
    }
    c.busTransactions += rootScalar(m, "bus.transactions");
    c.busInvalidations += rootScalar(m, "bus.invalidations");
    c.busWordUpdates += rootScalar(m, "bus.wordUpdates");
}

} // anonymous namespace

RunRecord
tracedSimulate(const ExperimentSpec &spec, Tracer &t, LayerCounters &c,
               cache::ResultCache *store)
{
    const std::string &id = spec.id;
    Scope cell(t, "cell", "bench", id);

    std::unique_ptr<App> app;
    {
        Scope s(t, "apps.make", "apps", id);
        app = AppRegistry::instance().make(spec.app, spec.params,
                                           spec.nodes);
    }
    MachineConfig mc = Runner::machineFor(spec);
    auto t0 = Clock::now();
    std::unique_ptr<Machine> mp;
    {
        Scope s(t, "machine.build", "machine", id);
        mp = std::make_unique<Machine>(mc);
    }
    Machine &m = *mp;
    {
        Scope s(t, "apps.setup", "apps", id);
        app->setup(m);
    }

    RunRecord record;
    record.sequential = spec.sequential;
    App *a = app.get();
    {
        Scope s(t, "machine.run", "machine", id);
        if (spec.sequential) {
            record.simCycles = m.run(
                [a](Mem &mem, int tid) -> Task<void> {
                    mem.setFootprint(a->footprint(mem.machine(), tid));
                    co_await a->sequential(mem);
                },
                1);
        } else {
            record.simCycles = m.run(
                [a](Mem &mem, int tid) -> Task<void> {
                    mem.setFootprint(a->footprint(mem.machine(), tid));
                    co_await a->thread(mem, tid);
                });
        }
    }
    record.hostWallSeconds = secondsBetween(t0, Clock::now());

    switch (m.runStatus()) {
      case Machine::RunStatus::Completed: record.status = "ok"; break;
      case Machine::RunStatus::DeadlineExceeded:
        record.status = "deadline";
        break;
      case Machine::RunStatus::Deadlocked: record.status = "deadlock"; break;
    }
    if (!record.failed()) {
        {
            Scope s(t, "apps.verify", "apps", id);
            record.verified = app->verify(m);
        }
        Scope s(t, "machine.check_invariants", "machine.post", id);
        m.checkInvariants();
    }
    {
        Scope s(t, "machine.image_hash", "machine.post", id);
        record.imageHash = m.imageHash();
    }

    record.id = spec.id;
    record.app = spec.app;
    record.protocol = m.backend->protocolName();
    record.machineModel = machineModelName(mc.machineModel);
    record.nodes = spec.sequential ? 1 : spec.nodes;
    record.hostEvents = static_cast<double>(m.eventq.numExecuted());
    record.trapsRaised = m.sumStat("home.trapsRaised");
    record.handlerCycles = m.sumStat("home.handlerCycles");
    record.messages = m.backend->trafficMessages();
    double rsum = 0, wsum = 0;
    std::uint64_t rcnt = 0, wcnt = 0;
    for (const auto &node : m.nodes) {
        const HomeController *home = node->coh->home();
        if (!home)
            continue;
        rsum += home->readHandlerCycles.sum();
        rcnt += home->readHandlerCycles.count();
        wsum += home->writeHandlerCycles.sum();
        wcnt += home->writeHandlerCycles.count();
    }
    record.readHandlerMean = rcnt ? rsum / static_cast<double>(rcnt) : 0;
    record.readHandlerCount = rcnt;
    record.writeHandlerMean = wcnt ? wsum / static_cast<double>(wcnt) : 0;
    record.writeHandlerCount = wcnt;
    {
        Scope s(t, "base.stats.dump", "base", id);
        std::ostringstream js;
        m.root.dumpJson(js);
        record.statsJson = js.str();
        std::ostringstream txt;
        m.dumpStats(txt);
        record.statsText = txt.str();
    }
    countMachine(m, c);

    if (store != nullptr && !record.failed() && record.verified) {
        Scope s(t, "exp.cache.store", "exp.cache", id);
        std::string err;
        if (store->store(spec, record, err))
            c.stores += 1;
    }
    return record;
}

bool
tracedLookup(const ExperimentSpec &spec, cache::ResultCache &cache,
             Tracer &t, LayerCounters &c, RunRecord &out)
{
    Scope cell(t, "cell", "bench", spec.id);
    Scope s(t, "exp.cache.lookup", "exp.cache", spec.id);
    bool hit = cache.lookup(spec, out);
    (hit ? c.lookupHits : c.lookupMisses) += 1;
    return hit;
}

void
tracedWriteJson(const RunRecord &r, const std::string &cell, Tracer &t,
                LayerCounters &c)
{
    Scope s(t, "exp.record.write_json", "exp", cell);
    std::ostringstream os;
    r.writeJson(os);
    c.recordBytes += static_cast<double>(os.str().size());
}

} // namespace swexbench
