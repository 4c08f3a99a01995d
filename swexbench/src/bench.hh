/**
 * @file
 * Shared declarations of the swex benchmark program: the workload
 * grids, the traced execution path with its span recorder, and the
 * layer microbenchmarks. The benchmark (main.cc) only ever reaches the
 * simulator through its public experiment API (Runner,
 * ExperimentSpec, ResultCache) and, in the traced run, through the
 * same public calls Runner::execute makes.
 */

#ifndef SWEXBENCH_BENCH_HH
#define SWEXBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exp/cache/result_cache.hh"
#include "exp/run_record.hh"
#include "exp/spec.hh"

namespace swexbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * A fixed amount of CPU and memory work that shares no code with the
 * simulator (calibrate.cc). Timed between cells, it tells how fast
 * the host runs at that moment.
 */
class ReferenceKernel
{
  public:
    ReferenceKernel();

    /** Run the work once. @return its host milliseconds. */
    double sampleMs();

  private:
    std::vector<std::uint64_t> heap, table, keys;
};

/** 64-bit FNV-1a of @p bytes. */
std::uint64_t fnv1a(const std::string &bytes);

/** Canonical (wall-clock-free) JSON of one record. */
std::string canonicalJson(const swex::RunRecord &r);

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

/** One named grid of cells, run serially in spec order. */
struct Workload
{
    std::string name;
    std::vector<swex::ExperimentSpec> specs;

    /** Per cell: index of its sequential reference in specs (whose
     *  cycles give the cell's speedup, as fig4/fig5 annotate), or -1. */
    std::vector<int> seqOf;

    /** Re-sweep from a result cache cold-filled during set-up. */
    bool cached = false;

    /** Cells executed once per set-up pass (simulating workloads):
     *  one per app, so every app's lazy initialization and first-touch
     *  cost is paid before timing starts. */
    std::vector<std::size_t> warmupCells;

    /** Canonical document digest this grid must reproduce; 0 when
     *  nothing is pinned (non-default seeds, smoke grids). */
    std::uint64_t pinnedDigest = 0;

    /** How the seed shaped the inputs (printed for the log). */
    std::string inputs;
};

/**
 * Build workload @p name for workload seed @p seed (0 = every app's
 * default seed, which reproduces the paper figures and is the only
 * seed with a pinned digest). @p smoke selects a tiny grid of the
 * same shape for the benchmark's own tests. @return false for an
 * unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  bool smoke, Workload &out);

/** Fill seqCycles/speedup from each cell's sequential reference
 *  (@p recs is parallel to w.specs). */
void annotateSpeedups(const Workload &w,
                      const std::vector<swex::RunRecord *> &recs);

/** Digest of the canonical swex-run-v1 document of @p log. */
std::uint64_t documentDigest(const swex::RunLog &log);

/**
 * Print the simulated-time accuracy block for directory_figs records
 * (Figure 4 H5 and H0 as a share of full-map, Figure 5 speedups)
 * beside the paper's stated figures. Prints nothing for grids without
 * fig4/fig5 cells.
 */
void printAccuracy(const Workload &w,
                   const std::vector<swex::RunRecord *> &recs);

// ------------------------------------------------------------------
// Traced run
// ------------------------------------------------------------------

/** One timed call into a layer. */
struct Span
{
    std::string name;     ///< e.g. "machine.run"
    std::string layer;    ///< track: "apps", "machine", "exp.cache"...
    std::string cell;     ///< spec id of the cell it belongs to
    double start = 0;     ///< seconds since the tracer's epoch
    double end = 0;
    int parent = -1;      ///< index of the enclosing span, or -1
    double childTime = 0; ///< time covered by direct children
};

/** In-memory span recorder; written out once, at exit. */
class Tracer
{
  public:
    Tracer() : epoch(Clock::now()) {}

    int open(std::string name, std::string layer, std::string cell);
    void close(int id);

    const std::vector<Span> &spans() const { return _spans; }

    /** Self time (duration minus direct children) summed by layer,
     *  over the spans opened at or after index @p first. */
    std::map<std::string, double> selfByLayer(std::size_t first) const;

    /** Total duration of the spans named @p name, from index @p first. */
    double totalOf(const std::string &name, std::size_t first = 0) const;

    /** Chrome trace-event JSON, one track per layer. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point epoch;
    std::vector<Span> _spans;
    std::vector<int> stack;
};

/** Deterministic counters summed over a traced pass's machines. */
struct LayerCounters
{
    double events = 0;
    double memOps = 0, memStallCycles = 0;
    double cacheAccesses = 0, cacheMisses = 0, victimHits = 0;
    double hwHandled = 0, traps = 0, handlerCycles = 0;
    double extEntries = 0;
    double messages = 0, flits = 0;
    double txWaitSum = 0, txWaitCount = 0;
    double busTransactions = 0, busInvalidations = 0, busWordUpdates = 0;
    double recordBytes = 0;
    double lookupHits = 0, lookupMisses = 0, stores = 0;
};

/**
 * Simulate @p spec through the public calls Runner::execute makes,
 * with a span around each, and return the record it assembles.
 * Counters from the machine's stats tree accumulate into @p c. When
 * @p store is set the finished record is stored into it (the cold
 * fill's write path), under an "exp.cache.store" span.
 */
swex::RunRecord tracedSimulate(const swex::ExperimentSpec &spec,
                               Tracer &t, LayerCounters &c,
                               swex::cache::ResultCache *store);

/** Serve @p spec from @p cache under spans; false on a miss. */
bool tracedLookup(const swex::ExperimentSpec &spec,
                  swex::cache::ResultCache &cache, Tracer &t,
                  LayerCounters &c, swex::RunRecord &out);

/** Write @p r's JSON under an "exp.record.write_json" span. */
void tracedWriteJson(const swex::RunRecord &r, const std::string &cell,
                     Tracer &t, LayerCounters &c);

// ------------------------------------------------------------------
// Layer microbenchmarks
// ------------------------------------------------------------------

/** Run every microbench; (metric name, ns per operation) pairs. */
std::vector<std::pair<std::string, double>>
runMicrobenches(const std::string &scratch_dir);

} // namespace swexbench

#endif // SWEXBENCH_BENCH_HH
