/**
 * @file
 * swexbench: the benchmark program for the swex simulator.
 *
 *   swexbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>] [--trace-out <file>] [--smoke]
 *             [--expect-digest <hex>] [--perturb cache-byte]
 *
 * One caller, one host thread: every workload is a closed loop that
 * executes its grid of cells serially through Runner::execute, pass
 * after pass, until --seconds have elapsed. A reference kernel that
 * shares no code with the simulator (calibrate.cc) is timed between
 * cells; every time is scaled by the reference's time around it, so
 * the metrics report the simulator at a fixed host speed, and each
 * cell's time is its median over the passes. Set-up (input
 * generation excluded) runs five times and reports its median
 * (scaled the same way) as setup_s; for warm_resweep it cold-fills a
 * result cache, which the timed passes then re-sweep from a fresh
 * Runner each time.
 *
 * Every pass is checked: each cell must be "ok" and verified, each
 * canonical record must equal the reference (the first pass, or for
 * warm_resweep the cold-fill record, byte for byte, and served from
 * the cache), and at the default seed the canonical document digest
 * must equal the pinned one. A mismatch counts in cells_failed and
 * makes the exit code 1.
 *
 * --trace 1 instead runs untraced passes and then traced passes that
 * drive the same public calls under spans (traced.cc), reports the
 * per-layer metrics and the layer microbenches (micro.cc), and writes
 * the spans as Chrome trace-event JSON to --trace-out.
 *
 * The last line of standard output is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "base/logging.hh"
#include "bench.hh"
#include "exp/runner.hh"

using namespace swex;
using namespace swexbench;
namespace fs = std::filesystem;

namespace
{

constexpr int setupPasses = 5;

/** Host milliseconds of one reference sample at the speed the times
 *  are reported at: about its median on the 4-core Xeon host the
 *  benchmark was defined on, so reported times read close to what
 *  that host's clock shows. */
constexpr double nominalReferenceMs = 13.0;

/** Shortest time between two reference samples in the timed loop. */
constexpr double sampleIntervalS = 0.05;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    bool smoke = false;
    bool expectSet = false;
    std::uint64_t expect = 0;
    bool flipCacheByte = false;
    std::string workDir;
    std::string traceOut;
};

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "swexbench: %s\n"
                 "usage: swexbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "                 [--work-dir <dir>] [--trace-out "
                 "<file>] [--smoke]\n"
                 "                 [--expect-digest <hex>] [--perturb "
                 "cache-byte]\n"
                 "workloads: directory_figs snoop_bus warm_resweep\n",
                 why.c_str());
    return 2;
}

bool
parseU64(const char *s, int base, std::uint64_t &out)
{
    if (s == nullptr || *s == '\0' || *s == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, base);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

/** @return "" or the reason the command line is unusable. */
std::string
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        auto need = [&]() -> const char * {
            ++i;
            return v;
        };
        if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--workload") {
            const char *s = need();
            if (s == nullptr)
                return "--workload needs a value";
            o.workload = s;
        } else if (a == "--seed") {
            if (!parseU64(need(), 10, o.seed))
                return "--seed needs a non-negative integer";
        } else if (a == "--seconds") {
            const char *s = need();
            char *end = nullptr;
            o.seconds = s ? std::strtod(s, &end) : 0;
            if (s == nullptr || *end != '\0' || !(o.seconds > 0) ||
                o.seconds > 600)
                return "--seconds needs a number in (0, 600]";
        } else if (a == "--trace") {
            const char *s = need();
            if (s == nullptr || (std::strcmp(s, "0") != 0 &&
                                 std::strcmp(s, "1") != 0))
                return "--trace needs 0 or 1";
            o.trace = s[0] - '0';
        } else if (a == "--work-dir") {
            const char *s = need();
            if (s == nullptr)
                return "--work-dir needs a value";
            o.workDir = s;
        } else if (a == "--trace-out") {
            const char *s = need();
            if (s == nullptr)
                return "--trace-out needs a value";
            o.traceOut = s;
        } else if (a == "--expect-digest") {
            if (!parseU64(need(), 16, o.expect))
                return "--expect-digest needs a hex digest";
            o.expectSet = true;
        } else if (a == "--perturb") {
            const char *s = need();
            if (s == nullptr || std::strcmp(s, "cache-byte") != 0)
                return "--perturb supports only cache-byte";
            o.flipCacheByte = true;
        } else {
            return "unknown argument '" + a + "'";
        }
    }
    if (o.workload.empty() || o.seconds <= 0 || o.trace < 0)
        return "--workload, --seconds and --trace are required";
    if (o.workDir.empty())
        o.workDir = ".bench_build/swexbench-work-" +
                    std::to_string(::getpid());
    if (o.traceOut.empty())
        o.traceOut = ".bench_build/swexbench-trace-" + o.workload +
                     "-seed" + std::to_string(o.seed) + ".json";
    return "";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The highest percentile with at least ten samples beyond it. */
struct Tail
{
    double value = 0;
    double percentile = 100;
    std::size_t samples = 0;
};

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    std::size_t k = v.size() > 10 ? v.size() - 11 : v.size() - 1;
    t.value = v[k];
    t.percentile = 100.0 * static_cast<double>(k + 1) /
                   static_cast<double>(v.size());
    return t;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

// ------------------------------------------------------------------
// Host-speed calibration
// ------------------------------------------------------------------

/** A time measured after reference sample @c sample (and before the
 *  next one). */
struct Timed
{
    double value;
    std::size_t sample;
};

/**
 * Reference samples interleaved with the timed work. The host is a
 * few cores of a shared machine whose speed swings by tens of percent,
 * from one second to the next and between phases minutes long. A time
 * measured between two samples is scaled by the nominal sample time
 * over the mean of those two samples, which reports it at a fixed
 * host speed. The reference kernel shares no code with the simulator,
 * so a change to the simulator still moves the scaled times in full.
 */
class Calibration
{
  public:
    /** Take a sample if @p force, or if none was taken in the last
     *  sampleIntervalS. Timed work starts only after a tick(). */
    void
    tick(bool force = false)
    {
        if (!force && !samples.empty() &&
            secondsBetween(last, Clock::now()) < sampleIntervalS)
            return;
        samples.push_back(kernel.sampleMs());
        last = Clock::now();
    }

    /** Index of the latest sample: work timed now falls after it. */
    std::size_t latest() const { return samples.size() - 1; }

    /** @p t at the nominal host speed. */
    double
    scaled(const Timed &t) const
    {
        std::size_t i = t.sample;
        double ref = i + 1 < samples.size()
            ? 0.5 * (samples[i] + samples[i + 1]) : samples[i];
        return t.value * nominalReferenceMs / ref;
    }

    const std::vector<double> &sampleMs() const { return samples; }

  private:
    ReferenceKernel kernel;
    std::vector<double> samples;
    Clock::time_point last;
};

/**
 * One time from its repeats: their median, scaled by @p cal when it
 * is set. A cell served from the result cache takes half a
 * millisecond of file reads and parsing, whose speed does not follow
 * the reference kernel's (scaling tripled its spread between runs),
 * and it repeats hundreds of times in a run; so cached workloads take
 * no samples between cells, and their times are not scaled.
 */
double
overPasses(const Calibration *cal, const std::vector<Timed> &ts)
{
    std::vector<double> v;
    for (const Timed &t : ts)
        v.push_back(cal ? cal->scaled(t) : t.value);
    return median(v);
}

// ------------------------------------------------------------------
// Set-up, passes, and the correctness gate
// ------------------------------------------------------------------

/** What set-up leaves behind for the timed passes. */
struct Prepared
{
    std::vector<Timed> setupSeconds;
    std::unique_ptr<cache::ResultCache> cache;   ///< warm_resweep
    std::vector<std::string> coldCanonical;      ///< warm_resweep
    std::size_t coldFailed = 0;
};

bool
cellOk(const RunRecord &r)
{
    return !r.failed() && r.verified && r.auditViolations == 0;
}

/** One set-up pass: everything before the first timed cell. */
void
setupPass(const Workload &w, const std::string &dir, Prepared &p,
          Calibration &cal)
{
    cal.tick(true);
    auto t0 = Clock::now();
    if (w.cached) {
        // The write path: a cold fill of a fresh cache directory.
        fs::remove_all(dir);
        auto rc = std::make_unique<cache::ResultCache>(dir);
        Runner runner(false);
        runner.attachCache(rc.get());
        std::vector<RunRecord *> recs;
        for (const ExperimentSpec &s : w.specs)
            recs.push_back(&runner.run(s));
        annotateSpeedups(w, recs);
        p.cache = std::move(rc);
        p.coldCanonical.clear();
        p.coldFailed = 0;
        for (const RunRecord *r : recs) {
            p.coldCanonical.push_back(canonicalJson(*r));
            p.coldFailed += cellOk(*r) ? 0 : 1;
        }
    } else {
        Runner runner(false);
        for (std::size_t i : w.warmupCells)
            runner.execute(w.specs[i]);
    }
    p.setupSeconds.push_back({secondsBetween(t0, Clock::now()),
                              cal.latest()});
}

/** One untraced pass over the grid: the timed unit. */
struct Pass
{
    std::unique_ptr<Runner> runner;   ///< owns the records (its log)
    std::vector<RunRecord *> recs;
    std::vector<bool> fromCache;
    std::vector<Timed> cellMs;
    Timed overheadMs{0, 0};           ///< the pass's non-cell work
    double wall = 0;                  ///< cells plus overhead, seconds
};

/** Run the grid once. Reference samples (when @p cal is set) fall
 *  between cells and are not part of any time. */
Pass
runPass(const Workload &w, cache::ResultCache *rc, Calibration *cal)
{
    Pass p;
    auto tick = [cal] {
        if (cal == nullptr)
            return std::size_t{0};
        cal->tick();
        return cal->latest();
    };
    auto t0 = Clock::now();
    p.runner = std::make_unique<Runner>(false);
    if (rc != nullptr)
        p.runner->attachCache(rc);
    double overhead = 1e3 * secondsBetween(t0, Clock::now());
    double cells = 0;
    for (const ExperimentSpec &s : w.specs) {
        std::size_t sample = tick();
        Runner::ExecSource src = Runner::ExecSource::Sim;
        auto c0 = Clock::now();
        RunRecord r = p.runner->execute(s, &src);
        double ms = 1e3 * secondsBetween(c0, Clock::now());
        p.cellMs.push_back({ms, sample});
        cells += ms;
        p.recs.push_back(&p.runner->log().add(std::move(r)));
        p.fromCache.push_back(src == Runner::ExecSource::Cache);
    }
    std::size_t sample = tick();
    auto t1 = Clock::now();
    annotateSpeedups(w, p.recs);
    // Emit the pass's swex-run-v1 document, as a sweep tool does.
    std::ostringstream doc;
    p.runner->log().writeJson(doc);
    overhead += 1e3 * secondsBetween(t1, Clock::now());
    p.overheadMs = {overhead, sample};
    p.wall = (cells + overhead) / 1e3;
    return p;
}

/** Checks every pass against the references; counts failed cells. */
class Gate
{
  public:
    Gate(const Workload &workload, std::uint64_t expected_digest,
         std::vector<std::string> references)
        : w(workload), expected(expected_digest),
          reference(std::move(references))
    {
    }

    /** @return cells of this pass that fail the gate. */
    std::size_t
    check(const std::vector<RunRecord *> &recs,
          const std::vector<bool> &from_cache, std::uint64_t digest)
    {
        if (reference.empty()) {
            for (const RunRecord *r : recs)
                reference.push_back(canonicalJson(*r));
        }
        lastDigest = digest;
        if (expected != 0 && digest != expected) {
            report("canonical document digest " + hex(digest) +
                   " differs from the expected " + hex(expected));
            return recs.size();
        }
        std::size_t bad = 0;
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const RunRecord &r = *recs[i];
            std::string why;
            if (!cellOk(r))
                why = "status " + r.status +
                      (r.verified ? "" : ", not verified");
            else if (w.cached && !from_cache[i])
                why = "not served from the result cache";
            else if (canonicalJson(r) != reference[i])
                why = "canonical record differs from the reference";
            if (!why.empty()) {
                ++bad;
                report(w.specs[i].id + ": " + why);
            }
        }
        return bad;
    }

    std::uint64_t lastDigest = 0;

  private:
    void
    report(const std::string &msg)
    {
        if (reported++ < 8)
            std::fprintf(stderr, "swexbench: FAIL %s\n", msg.c_str());
    }

    const Workload &w;
    std::uint64_t expected;
    std::vector<std::string> reference;
    int reported = 0;
};

/** What the traced run must reproduce of an untraced cell. */
struct Outcome
{
    std::string status;
    bool verified = false;
    Tick simCycles = 0;
    std::uint64_t imageHash = 0;
};

/** The untraced passes of a run. */
struct Loop
{
    std::vector<double> walls;          ///< unscaled, seconds
    std::vector<std::vector<Timed>> cellMs;  ///< per cell, per pass
    std::vector<Timed> overheadMs;      ///< per pass
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double eventsPerPass = 0;
    std::vector<Outcome> first;         ///< the first pass's cells
    /** Peak resident memory through set-up and the first pass: later
     *  passes repeat the same work, so their growth is only heap
     *  fragmentation, which varies from run to run. */
    double peakRssMb = 0;

    /** Per cell, its time over the passes (see overPasses). */
    std::vector<double>
    cellTimes(const Calibration *cal) const
    {
        std::vector<double> v;
        for (const std::vector<Timed> &ts : cellMs)
            v.push_back(overPasses(cal, ts));
        return v;
    }

    /** One pass of the grid: every cell and the non-cell work, each
     *  at its time over the passes. */
    double
    gridSeconds(const Calibration *cal) const
    {
        double ms = overPasses(cal, overheadMs);
        for (double c : cellTimes(cal))
            ms += c;
        return ms / 1e3;
    }
};

/** Run one untraced pass, check it, and fold it into @p l. */
void
untracedPass(const Workload &w, Prepared &prep, Gate &gate, Loop &l,
             Calibration *cal)
{
    Pass p = runPass(w, prep.cache.get(), cal);
    l.walls.push_back(p.wall);
    l.cellMs.resize(p.cellMs.size());
    for (std::size_t i = 0; i < p.cellMs.size(); ++i)
        l.cellMs[i].push_back(p.cellMs[i]);
    l.overheadMs.push_back(p.overheadMs);
    l.attempted += p.recs.size();
    l.failed += gate.check(p.recs, p.fromCache,
                           documentDigest(p.runner->log()));
    if (l.walls.size() == 1) {
        l.peakRssMb = peakRssMb();
        printAccuracy(w, p.recs);
        for (const RunRecord *r : p.recs) {
            l.eventsPerPass += r->hostEvents;
            l.first.push_back({r->status, r->verified, r->simCycles,
                               r->imageHash});
        }
    }
}

void
printMetric(const Metric &m)
{
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        double v = metrics[i].value;
        if (!std::isfinite(v))
            v = 0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

// ------------------------------------------------------------------
// The traced run
// ------------------------------------------------------------------

/**
 * The traced run: untraced and traced passes alternate for
 * --seconds, so both see the same host conditions; the untraced ones
 * are gated like timed passes and give the traced ones their
 * reference. @return the per-layer metrics.
 */
std::vector<Metric>
tracedRun(const Workload &w, Prepared &prep, const Options &o, Gate &gate,
          Loop &base)
{
    Tracer tracer;
    LayerCounters fill;
    double store_s = 0;
    if (w.cached) {
        // The write path under spans: a cold fill of a second cache.
        cache::ResultCache rc(o.workDir + "/traced-cache");
        for (const ExperimentSpec &s : w.specs)
            tracedSimulate(s, tracer, fill, &rc);
        store_s = tracer.totalOf("exp.cache.store");
    }

    const std::size_t firstPassSpan = tracer.spans().size();
    std::vector<double> walls;
    LayerCounters c1;
    auto t0 = Clock::now();
    for (;;) {
        untracedPass(w, prep, gate, base, nullptr);

        LayerCounters c;
        int pass = tracer.open("pass", "bench", w.name);
        std::vector<RunRecord> recs(w.specs.size());
        std::vector<bool> ok(w.specs.size(), true);
        for (std::size_t i = 0; i < w.specs.size(); ++i) {
            if (w.cached)
                ok[i] = tracedLookup(w.specs[i], *prep.cache, tracer, c,
                                     recs[i]);
            else
                recs[i] = tracedSimulate(w.specs[i], tracer, c, nullptr);
        }
        std::vector<RunRecord *> ptrs;
        for (RunRecord &r : recs)
            ptrs.push_back(&r);
        annotateSpeedups(w, ptrs);
        for (std::size_t i = 0; i < recs.size(); ++i)
            tracedWriteJson(recs[i], w.specs[i].id, tracer, c);
        tracer.close(pass);
        const Span &ps = tracer.spans()[static_cast<std::size_t>(pass)];
        walls.push_back(ps.end - ps.start);

        // The traced run must reproduce the untraced records.
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const Outcome &u = base.first[i];
            bool same = w.cached
                ? ok[i] && canonicalJson(recs[i]) == prep.coldCanonical[i]
                : recs[i].status == u.status &&
                      recs[i].verified == u.verified &&
                      recs[i].simCycles == u.simCycles &&
                      recs[i].imageHash == u.imageHash;
            if (!same) {
                ++base.failed;
                std::fprintf(stderr, "swexbench: FAIL traced %s does not "
                             "reproduce the untraced record\n",
                             w.specs[i].id.c_str());
            }
        }
        base.attempted += recs.size();
        if (walls.size() == 1)
            c1 = c;
        double elapsed = secondsBetween(t0, Clock::now());
        if (elapsed + median(walls) + median(base.walls) > o.seconds)
            break;
    }

    const double passes = static_cast<double>(walls.size());
    auto ms = [&](const char *span) {
        return 1e3 * tracer.totalOf(span, firstPassSpan) / passes;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    const double run_s = tracer.totalOf("machine.run", firstPassSpan) /
                         passes;
    double lookups = c1.lookupHits + c1.lookupMisses;

    std::vector<Metric> m = {
        {"sim.events", c1.events, "count"},
        {"sim.host_ns_per_event", ratio(run_s * 1e9, c1.events), "ns"},
        {"machine.build_ms", ms("machine.build"), "ms"},
        {"machine.run_ms", ms("machine.run"), "ms"},
        {"machine.proc.mem_ops", c1.memOps, "count"},
        {"machine.proc.mem_stall_cycles", c1.memStallCycles, "cycles"},
        {"machine.check_invariants_ms", ms("machine.check_invariants"),
         "ms"},
        {"machine.image_hash_ms", ms("machine.image_hash"), "ms"},
        {"apps.make_ms", ms("apps.make"), "ms"},
        {"apps.setup_ms", ms("apps.setup"), "ms"},
        {"apps.verify_ms", ms("apps.verify"), "ms"},
        {"mem.cache.accesses", c1.cacheAccesses, "count"},
        {"mem.cache.miss_ratio", ratio(c1.cacheMisses, c1.cacheAccesses),
         "ratio"},
        {"mem.cache.victim_hits", c1.victimHits, "count"},
        {"core.home.hw_handled", c1.hwHandled, "count"},
        {"core.home.traps", c1.traps, "count"},
        {"core.home.trap_ratio", ratio(c1.traps, c1.traps + c1.hwHandled),
         "ratio"},
        {"core.home.handler_cycles", c1.handlerCycles, "cycles"},
        {"core.extdir.entries_allocated", c1.extEntries, "count"},
        {"net.messages", c1.messages, "count"},
        {"net.flits", c1.flits, "count"},
        {"net.tx_queue_wait_mean", ratio(c1.txWaitSum, c1.txWaitCount),
         "cycles"},
        {"snoop.bus.transactions", c1.busTransactions, "count"},
        {"snoop.bus.invalidations", c1.busInvalidations, "count"},
        {"snoop.bus.word_updates", c1.busWordUpdates, "count"},
        {"base.stats.dump_ms", ms("base.stats.dump"), "ms"},
        {"exp.record.write_json_ms", ms("exp.record.write_json"), "ms"},
        {"exp.record.bytes", c1.recordBytes, "bytes"},
        {"exp.cache.lookup_ms", ms("exp.cache.lookup"), "ms"},
        {"exp.cache.hits", c1.lookupHits, "count"},
        {"exp.cache.misses", c1.lookupMisses, "count"},
        {"exp.cache.hit_ratio", ratio(c1.lookupHits, lookups), "ratio"},
        {"exp.cache.store_ms", 1e3 * store_s, "ms"},
        {"exp.cache.stores", fill.stores, "count"},
        {"trace.overhead_pct",
         100.0 * (*std::min_element(walls.begin(), walls.end()) /
                      *std::min_element(base.walls.begin(),
                                        base.walls.end()) -
                  1.0),
         "%"},
    };

    // Each layer's self time as a share of the traced passes' wall.
    double traced_wall = 0;
    for (double x : walls)
        traced_wall += x;
    std::map<std::string, double> self = tracer.selfByLayer(firstPassSpan);
    const char *layers[][2] = {
        {"bench", "share.bench_pct"},
        {"apps", "share.apps_pct"},
        {"machine", "share.machine_pct"},
        {"machine.post", "share.machine_post_pct"},
        {"base", "share.base_pct"},
        {"exp", "share.exp_pct"},
        {"exp.cache", "share.exp_cache_pct"},
    };
    for (const auto &[layer, name] : layers)
        m.push_back({name, 100.0 * ratio(self[layer], traced_wall), "%"});

    for (const auto &[name, ns] : runMicrobenches(o.workDir + "/micro"))
        m.push_back({name, ns, "ns"});

    if (!tracer.writeChromeTrace(o.traceOut))
        std::fprintf(stderr, "swexbench: could not write %s\n",
                     o.traceOut.c_str());
    else
        std::printf("trace: %zu spans -> %s\n", tracer.spans().size(),
                    o.traceOut.c_str());
    return m;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    Options o;
    std::string err = parseArgs(argc, argv, o);
    if (!err.empty())
        return usage(err);

    Workload w;
    if (!makeWorkload(o.workload, o.seed, o.smoke, w))
        return usage("unknown workload '" + o.workload + "'");
    const std::uint64_t expected = o.expectSet ? o.expect : w.pinnedDigest;

    std::error_code ec;
    fs::create_directories(o.workDir, ec);
    fs::create_directories(fs::path(o.traceOut).parent_path(), ec);

    std::printf("swexbench %s: %zu cells, seed %llu (%s), %s run, "
                "%.0f s\n",
                w.name.c_str(), w.specs.size(),
                static_cast<unsigned long long>(o.seed), w.inputs.c_str(),
                o.trace ? "traced" : "timed", o.seconds);
    std::fflush(stdout);

    Calibration cal;
    Prepared prep;
    const int passes = o.trace ? 1 : setupPasses;
    for (int k = 0; k < passes; ++k)
        setupPass(w, o.workDir + "/cache-" + std::to_string(k), prep, cal);
    cal.tick(true);
    if (o.flipCacheByte && prep.cache) {
        // Test hook: corrupt one stored record behind the cache's back.
        std::string path = prep.cache->entryPath(w.specs.front());
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekg(0, std::ios::end);
        std::streamoff mid = f.tellg() / 2;
        f.seekg(mid);
        char c = 0;
        f.get(c);
        f.seekp(mid);
        f.put(static_cast<char>(c ^ 0x5a));
    }

    Gate gate(w, expected, prep.coldCanonical);
    Loop loop;
    std::vector<Metric> metrics;
    Calibration *scaling = w.cached ? nullptr : &cal;
    if (o.trace == 0) {
        // Pass durations here include the reference samples.
        std::vector<double> durations;
        auto t0 = Clock::now();
        do {
            auto p0 = Clock::now();
            untracedPass(w, prep, gate, loop, scaling);
            durations.push_back(secondsBetween(p0, Clock::now()));
        } while (secondsBetween(t0, Clock::now()) + median(durations) <=
                 o.seconds);
        cal.tick(true);
    } else {
        metrics = tracedRun(w, prep, o, gate, loop);
    }
    std::size_t attempted = loop.attempted;
    std::size_t failed = loop.failed + prep.coldFailed;

    std::printf("digest: %s (%s)\n", hex(gate.lastDigest).c_str(),
                expected == 0 ? "not pinned at this seed"
                : gate.lastDigest == expected ? "matches the pinned digest"
                                              : "MISMATCH");

    if (o.trace == 0) {
        const double wall = loop.gridSeconds(scaling);
        const std::vector<double> cells = loop.cellTimes(scaling);
        Tail tail = tailOf(cells);
        metrics = {
            {"setup_s", overPasses(&cal, prep.setupSeconds), "s"},
            {"wall_s", wall, "s"},
            {"events_per_s", wall > 0 ? loop.eventsPerPass / wall : 0,
             "1/s"},
            {"cell_p50_ms", median(cells), "ms"},
            {"cell_tail_ms", tail.value, "ms"},
            {"peak_rss_mb", loop.peakRssMb, "MB"},
        };
        std::printf("set-up passes (s, as measured):");
        for (const Timed &t : prep.setupSeconds)
            std::printf(" %.4f", t.value);
        std::printf("\n");
        auto [lo, hi] = std::minmax_element(loop.walls.begin(),
                                            loop.walls.end());
        std::printf("%zu passes; pass wall (s, as measured): min %.4f "
                    "median %.4f max %.4f\n",
                    loop.walls.size(), *lo, median(loop.walls), *hi);
        const std::vector<double> &ref = cal.sampleMs();
        auto [rlo, rhi] = std::minmax_element(ref.begin(), ref.end());
        std::printf("host speed: %zu reference samples (ms): min %.3f "
                    "median %.3f max %.3f; %s scaled to %.1f ms\n",
                    ref.size(), *rlo, median(ref), *rhi,
                    scaling ? "times below are" : "setup_s is",
                    nominalReferenceMs);
        std::printf("end-to-end (each cell at its median over the "
                    "passes%s; cell_tail_ms is p%.1f of %zu cells):\n",
                    scaling ? "" : ", unscaled", tail.percentile,
                    tail.samples);
    } else {
        std::printf("per-layer (%zu traced passes, alternating with "
                    "untraced ones):\n",
                    loop.walls.size());
    }
    for (const Metric &m : metrics)
        printMetric(m);
    printMetric({"cells", static_cast<double>(attempted), "count"});
    printMetric({"cells_failed", static_cast<double>(failed), "count"});

    // Release the cache before deleting its directory.
    prep.cache.reset();
    fs::remove_all(o.workDir, ec);

    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}
