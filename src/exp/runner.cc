#include "exp/runner.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "audit/auditor.hh"
#include "base/logging.hh"
#include "base/trace.hh"
#include "core/home_controller.hh"
#include "exp/cache/result_cache.hh"
#include "exp/pool.hh"
#include "machine/node.hh"

namespace swex
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
}

} // anonymous namespace

MachineConfig
Runner::machineFor(const ExperimentSpec &spec)
{
    MachineConfig mc;
    if (spec.sequential) {
        // The paper's speedup baseline: 1 node, full-map (software
        // extension never invoked), victim caching on.
        mc.numNodes = 1;
        mc.protocol = ProtocolConfig::fullMap();
        mc.cacheCtrl.victimEntries = 6;
    } else {
        mc = spec.machine();
    }
    return mc;
}

RunRecord
Runner::execute(const ExperimentSpec &spec, ExecSource *source) const
{
    if (source != nullptr)
        *source = ExecSource::Sim;

    // A warm result-cache cell short-circuits everything below — no
    // app, no machine, no simulation. A corrupt or stale entry reads
    // as a miss (and is deleted), so the recompute below is the
    // fallback path, not an error path.
    if (_cache != nullptr) {
        RunRecord cached;
        if (_cache->lookup(spec, cached)) {
            if (source != nullptr)
                *source = ExecSource::Cache;
            return cached;
        }
    }

    // Attribute any SWEX_TRACE output from this run (which may share
    // the sink with concurrent runs) to its spec.
    TraceRunScope trace_scope(spec.id);

    auto app = AppRegistry::instance().make(spec.app, spec.params,
                                            spec.nodes);

    MachineConfig mc = machineFor(spec);

    auto t0 = std::chrono::steady_clock::now();
    Machine m(mc);
    CoherenceAuditor auditor(CoherenceAuditor::Mode::Collect);
    if (spec.audit && !spec.sequential)
        m.attachAuditor(&auditor);

    RunRecord record;
    record.sequential = spec.sequential;
    record.simCycles = spec.sequential ? app->runSequential(m)
                                       : app->runParallel(m);
    record.hostWallSeconds = secondsSince(t0);

    switch (m.runStatus()) {
      case Machine::RunStatus::Completed:
        record.status = "ok";
        break;
      case Machine::RunStatus::DeadlineExceeded:
        record.status = "deadline";
        break;
      case Machine::RunStatus::Deadlocked:
        record.status = "deadlock";
        break;
    }

    if (record.failed()) {
        // The run was abandoned mid-transaction: verification and the
        // invariant checks (which panic on transient directory state)
        // are meaningless. Record what stalled instead.
        record.lastProgress = m.lastProgressTick();
        if (spec.audit && !spec.sequential) {
            record.stallSummary = auditor.stallSummary();
        } else {
            // Attach a post-mortem auditor just for its directory
            // views; the run is over, so this observes, never alters.
            CoherenceAuditor post(CoherenceAuditor::Mode::Collect);
            m.attachAuditor(&post);
            record.stallSummary = post.stallSummary();
            m.attachAuditor(nullptr);
        }
    } else {
        record.verified = app->verify(m);
        m.checkInvariants();
    }
    record.imageHash = m.imageHash();
    if (spec.audit && !spec.sequential) {
        record.audited = true;
        record.auditTransitions = auditor.transitionsChecked();
        record.auditViolations = auditor.violationCount();
        for (const AuditViolation &v : auditor.violations())
            warn("audit: %s", v.describe().c_str());
        m.attachAuditor(nullptr);
    }
    record.faultDrop = mc.net.faults.dropPerMille;
    record.faultDup = mc.net.faults.dupPerMille;
    record.faultBlackout = mc.net.faults.blackoutPerMille;
    record.faultSeed = mc.net.faults.seed;
    record.deadline = mc.deadline;

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
            continue;   // non-directory models have no trap handlers
        rsum += home->readHandlerCycles.sum();
        rcnt += home->readHandlerCycles.count();
        wsum += home->writeHandlerCycles.sum();
        wcnt += home->writeHandlerCycles.count();
    }
    record.readHandlerMean = rcnt ? rsum / static_cast<double>(rcnt) : 0;
    record.readHandlerCount = rcnt;
    record.writeHandlerMean = wcnt ? wsum / static_cast<double>(wcnt) : 0;
    record.writeHandlerCount = wcnt;

    if (spec.trackSharing && !spec.sequential)
        record.workerSets = m.tracker.endOfRunHistogram(spec.nodes);

    // The dumps grow in place; the record outlives the machine, so it
    // keeps them at their exact size.
    m.root.dumpJson(record.statsJson);
    m.root.dump(record.statsText);
    record.statsJson.shrink_to_fit();
    record.statsText.shrink_to_fit();

    // Store policy: only a completed, verified, violation-free record
    // enters the cache, so a later hit serves exactly the bytes a
    // fresh run would emit. A store failure costs throughput, never
    // correctness.
    if (_cache != nullptr && !record.failed() && record.verified &&
        record.auditViolations == 0) {
        std::string err;
        if (!_cache->store(spec, record, err))
            warn("cache %s: store failed: %s", spec.id.c_str(),
                 err.c_str());
    }
    return record;
}

void
Runner::enforce(const RunRecord &r) const
{
    if (!failFast)
        return;
    if (r.failed()) {
        fatal("%s did not complete under %s (%d nodes): %s at tick "
              "%llu\n%s",
              r.app.c_str(), r.protocol.c_str(), r.nodes,
              r.status.c_str(),
              static_cast<unsigned long long>(r.lastProgress),
              r.stallSummary.c_str());
    }
    if (!r.verified) {
        fatal("%s failed verification under %s (%d nodes%s)",
              r.app.c_str(), r.protocol.c_str(), r.nodes,
              r.sequential ? ", sequential" : "");
    }
    if (r.auditViolations > 0) {
        fatal("%s violated %llu coherence invariants under %s "
              "(%d nodes)",
              r.app.c_str(),
              static_cast<unsigned long long>(r.auditViolations),
              r.protocol.c_str(), r.nodes);
    }
}

RunRecord &
Runner::run(const ExperimentSpec &spec)
{
    RunRecord &logged = _log.add(execute(spec));
    enforce(logged);
    return logged;
}

RunRecord &
Runner::runSequential(const ExperimentSpec &spec)
{
    ExperimentSpec seq_spec = spec;
    seq_spec.sequential = true;
    return run(seq_spec);
}

std::vector<RunRecord *>
Runner::runAll(const std::vector<ExperimentSpec> &specs, unsigned jobs)
{
    // Execute into an index-addressed scratch vector — the only
    // cross-thread state, and written at disjoint indices — then
    // merge into the log in spec order so the document layout is
    // independent of completion order.
    std::vector<RunRecord> results(specs.size());

    // Longest-first claiming order: big cells (many nodes, heavy
    // apps) start first so the sweep never ends waiting on a large
    // simulation claimed at the tail. Results are merged by index,
    // so the schedule cannot affect the document.
    std::vector<double> costs;
    costs.reserve(specs.size());
    for (const ExperimentSpec &s : specs) {
        double w = 1.0;
        if (AppRegistry::instance().contains(s.app))
            w = AppRegistry::instance().entry(s.app).costWeight;
        costs.push_back(w * static_cast<double>(
                                s.sequential ? 1 : s.nodes));
    }

    parallelFor(specs.size(), jobs, costs, [&](std::size_t i) {
        results[i] = execute(specs[i]);
    });

    std::vector<RunRecord *> out;
    out.reserve(specs.size());
    for (RunRecord &r : results)
        out.push_back(&_log.add(std::move(r)));
    for (const RunRecord *r : out)
        enforce(*r);
    return out;
}

bool
Runner::emitRecords() const
{
    if (_log.writeEnv())
        return true;
    // Deliberately not warn(): benches run with setQuiet(true), and a
    // dropped record file must never be silent.
    const char *path = std::getenv(RunLog::envVar);
    std::fprintf(stderr,
                 "error: could not write run records to $%s (%s)\n",
                 RunLog::envVar, path != nullptr ? path : "unset");
    return false;
}

} // namespace swex
