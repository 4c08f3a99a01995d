/**
 * @file
 * The benchmark's three workload grids, how the workload seed shapes
 * their inputs, the canonical digests pinned at the default seed,
 * and the simulated-time accuracy block.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "apps/tsp.hh"
#include "base/rng.hh"
#include "bench.hh"
#include "core/spectrum.hh"

using namespace swex;

namespace swexbench
{

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
canonicalJson(const RunRecord &r)
{
    std::ostringstream os;
    r.writeJson(os, /*canonical=*/true);
    return os.str();
}

std::uint64_t
documentDigest(const RunLog &log)
{
    std::ostringstream os;
    log.writeJson(os, /*canonical=*/true);
    return fnv1a(os.str());
}

namespace
{

/** Figure 4's rows (bench/fig4_speedups.cc), reused by snoop_bus. */
struct AppRow
{
    const char *label;
    const char *app;
    AppParams params;
};

const AppRow figRows[] = {
    {"TSP", "tsp", {}},
    {"AQ", "aq", {}},
    {"SMGRID", "smgrid", {{"fine", "65"}}},
    {"EVOLVE", "evolve", {}},
    {"MP3D", "mp3d", {}},
    {"WATER", "water", {}},
};

/** Figure 5's TSP problem (bench/fig5_tsp256.cc). */
const AppParams fig5Params = {
    {"cities", "11"},
    {"seed", "49"},
    {"frontier", "2048"},
};

/**
 * FNV-1a digests of each grid's canonical swex-run-v1 document at the
 * default seed, as the simulator produced them when the benchmark was
 * defined. Any change to a simulated statistic, the event count, or
 * the record format moves them. directory_figs' document is exactly
 * fig4_speedups' records followed by fig5_tsp256's.
 */
constexpr std::uint64_t pinnedDirectoryFigs = 0x746c411765dfaa99ULL;
constexpr std::uint64_t pinnedSnoopBus = 0xc7bb7e5a5d64cf1bULL;
constexpr std::uint64_t pinnedWarmResweep = 0xb0924ac4498ed881ULL;

/**
 * The apps whose inputs the workload seed replaces. TSP's work (the
 * branch-and-bound tree) swings tenfold between instances, which
 * would make host time measure the draw instead of the simulator; so
 * the seed picks the first TSP instance, in a seeded candidate
 * sequence, whose expansion count is within 4% of the default
 * instance's. The problem size stays the paper's; the instance
 * changes. The other apps' work hardly depends on their seed.
 */
class SeededInputs
{
  public:
    explicit SeededInputs(std::uint64_t workload_seed)
        : seed(workload_seed)
    {
    }

    AppParams
    apply(const std::string &app, AppParams p)
    {
        if (seed == 0)
            return p;
        if (app == "tsp") {
            p["seed"] = std::to_string(tspSeed(p));
        } else if (app == "mp3d" || app == "water" || app == "evolve") {
            p["seed"] = std::to_string(seed);
        }
        return p;
    }

    std::string
    describe() const
    {
        if (seed == 0)
            return "default app seeds (the paper figures)";
        std::ostringstream os;
        os << "mp3d/water/evolve seed=" << seed;
        for (const auto &[key, s] : tspCache)
            os << "; tsp " << key << " seed=" << s;
        return os.str();
    }

  private:
    std::uint64_t
    tspSeed(const AppParams &p)
    {
        std::string key = "cities=" +
            (p.count("cities") ? p.at("cities") : std::string("10"));
        auto it = tspCache.find(key);
        if (it != tspCache.end())
            return it->second;

        auto expansions = [&](std::uint64_t s) {
            AppParams q = p;
            q["seed"] = std::to_string(s);
            auto app = AppRegistry::instance().make("tsp", q, 1);
            return static_cast<double>(
                static_cast<TspApp &>(*app).expectedExpansions());
        };
        const double target = expansions(
            p.count("seed") ? std::stoull(p.at("seed")) : TspConfig{}.seed);

        Rng rng(seed);
        std::uint64_t best = 0;
        double best_err = 1e300;
        for (int i = 0; i < 600 && best_err > 0.04; ++i) {
            std::uint64_t cand = 1 + (rng.next() >> 34);
            double err = std::fabs(expansions(cand) / target - 1.0);
            if (err < best_err) {
                best_err = err;
                best = cand;
            }
        }
        tspCache[key] = best;
        return best;
    }

    std::uint64_t seed;
    std::map<std::string, std::uint64_t> tspCache;
};

/** A cell as the figure benches build it: victim caching on. */
ExperimentSpec
figSpec(std::string id, const char *app, AppParams params, int nodes)
{
    ExperimentSpec s;
    s.id = std::move(id);
    s.app = app;
    s.params = std::move(params);
    s.nodes = nodes;
    s.victimEntries = 6;
    return s;
}

void
addCell(Workload &w, ExperimentSpec spec, int seq_of)
{
    w.specs.push_back(std::move(spec));
    w.seqOf.push_back(seq_of);
}

/** Per row: the sequential reference, then the pointer-axis points. */
void
addPointerRows(Workload &w, const std::string &prefix,
               const std::vector<AppRow> &rows, int nodes,
               const std::vector<SpectrumPoint> &axis,
               SeededInputs &inputs, const std::string &seq_suffix)
{
    for (const AppRow &row : rows) {
        ExperimentSpec base = figSpec(prefix + row.label, row.app,
                                      inputs.apply(row.app, row.params),
                                      nodes);
        int seq = static_cast<int>(w.specs.size());
        ExperimentSpec s = base;
        s.id += seq_suffix;
        s.sequential = true;
        addCell(w, std::move(s), -1);
        for (const SpectrumPoint &pt : axis) {
            ExperimentSpec spec = base;
            spec.id += "/h" + pt.label;
            spec.protocol = pt.protocol;
            addCell(w, std::move(spec), seq);
        }
    }
}

void
directoryFigs(Workload &w, SeededInputs &inputs, bool smoke)
{
    if (smoke) {
        addPointerRows(w, "smoke/fig4/", {{"AQ", "aq", {}}}, 16,
                       {{"0", ProtocolConfig::h0()},
                        {"5", ProtocolConfig::hw(5)},
                        {"n", ProtocolConfig::fullMap()}},
                       inputs, "");
        return;
    }
    std::vector<AppRow> rows(std::begin(figRows), std::end(figRows));
    addPointerRows(w, "fig4/", rows, 64, pointerAxis(), inputs, "");

    // Figure 5: ids as bench/fig5_tsp256 emits them.
    ExperimentSpec base = figSpec("fig5/tsp256", "tsp",
                                  inputs.apply("tsp", fig5Params), 256);
    int seq = static_cast<int>(w.specs.size());
    ExperimentSpec s = base;
    s.sequential = true;
    addCell(w, std::move(s), -1);
    const std::vector<SpectrumPoint> fig5 = {
        {"H0", ProtocolConfig::h0()},
        {"H1", ProtocolConfig::h1Ack()},
        {"H5", ProtocolConfig::hw(5)},
        {"FULL", ProtocolConfig::fullMap()},
    };
    for (const SpectrumPoint &pt : fig5) {
        ExperimentSpec spec = base;
        spec.id += "/" + pt.label;
        spec.protocol = pt.protocol;
        addCell(w, std::move(spec), seq);
    }
}

void
snoopBus(Workload &w, SeededInputs &inputs, bool smoke)
{
    std::vector<AppRow> rows(std::begin(figRows), std::end(figRows));
    if (smoke)
        rows = {{"AQ", "aq", {}}};
    const std::pair<const char *, SnoopProtocol> protos[] = {
        {"mesi", SnoopProtocol::Mesi},
        {"moesi", SnoopProtocol::Moesi},
        {"mesif", SnoopProtocol::Mesif},
        {"dragon", SnoopProtocol::Dragon},
    };
    for (const AppRow &row : rows) {
        for (const auto &[label, proto] : protos) {
            ExperimentSpec spec = figSpec(
                std::string(smoke ? "smoke/" : "") + "snoop/" + row.label +
                    "/" + label,
                row.app, inputs.apply(row.app, row.params),
                smoke ? 16 : 64);
            spec.machineModel = MachineModel::Snoop;
            spec.snoopProtocol = proto;
            spec.busArbitration = BusArbitration::Fifo;
            addCell(w, std::move(spec), -1);
        }
    }
}

void
warmResweep(Workload &w, std::uint64_t seed, bool smoke)
{
    // bench/fig_cache_sweep's grid. WORKER has no input seed, so the
    // workload seed becomes the machine seed, which keys the cache.
    std::vector<AppRow> rows = {
        {"W16", "worker", {{"wss", "16"}, {"iterations", "10"}}},
        {"W32", "worker", {{"wss", "32"}, {"iterations", "10"}}},
        {"W48", "worker", {{"wss", "48"}, {"iterations", "10"}}},
    };
    if (smoke)
        rows = {{"W4", "worker", {{"wss", "4"}, {"iterations", "2"}}}};
    SeededInputs none(0);
    addPointerRows(w, smoke ? "smoke/cache/" : "fig_cache/", rows,
                   smoke ? 16 : 64, pointerAxis(), none, "/seq");
    if (seed != 0) {
        for (ExperimentSpec &s : w.specs)
            s.seed = seed;
    }
}

/** The first cell of each app that satisfies @p pick, in grid order. */
template <typename Pick>
std::vector<std::size_t>
firstCellsOfApps(const Workload &w, Pick pick)
{
    std::vector<std::size_t> out;
    std::vector<std::string> seen;
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
        const ExperimentSpec &s = w.specs[i];
        if (pick(s) &&
            std::find(seen.begin(), seen.end(), s.app) == seen.end()) {
            seen.push_back(s.app);
            out.push_back(i);
        }
    }
    return out;
}

} // anonymous namespace

bool
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke,
             Workload &out)
{
    Workload w;
    w.name = name;
    SeededInputs inputs(seed);
    std::uint64_t pinned = 0;
    if (name == "directory_figs") {
        directoryFigs(w, inputs, smoke);
        pinned = pinnedDirectoryFigs;
        w.warmupCells = firstCellsOfApps(w, [](const ExperimentSpec &s) {
            return !s.sequential &&
                   s.protocol.name() == ProtocolConfig::fullMap().name();
        });
    } else if (name == "snoop_bus") {
        snoopBus(w, inputs, smoke);
        pinned = pinnedSnoopBus;
        w.warmupCells = firstCellsOfApps(
            w, [](const ExperimentSpec &) { return true; });
    } else if (name == "warm_resweep") {
        warmResweep(w, seed, smoke);
        w.cached = true;
        pinned = pinnedWarmResweep;
        w.inputs = seed == 0 ? "default machine seed"
                             : "machine seed=" + std::to_string(seed);
    } else {
        return false;
    }
    if (w.inputs.empty())
        w.inputs = inputs.describe();
    if (seed == 0 && !smoke)
        w.pinnedDigest = pinned;
    out = std::move(w);
    return true;
}

void
annotateSpeedups(const Workload &w, const std::vector<RunRecord *> &recs)
{
    for (std::size_t i = 0; i < recs.size(); ++i) {
        int seq = w.seqOf[i];
        if (seq < 0 || recs[i]->simCycles == 0)
            continue;
        double t_seq = static_cast<double>(
            recs[static_cast<std::size_t>(seq)]->simCycles);
        recs[i]->seqCycles = t_seq;
        recs[i]->speedup = t_seq / static_cast<double>(recs[i]->simCycles);
    }
}

void
printAccuracy(const Workload &w, const std::vector<RunRecord *> &recs)
{
    auto find = [&](const std::string &id) -> const RunRecord * {
        for (std::size_t i = 0; i < w.specs.size(); ++i) {
            if (w.specs[i].id == id)
                return recs[i];
        }
        return nullptr;
    };
    if (find("fig4/TSP/hn") == nullptr)
        return;

    std::printf("accuracy (simulated time; the bands are the paper's "
                "figures, not hardware measurements):\n");
    std::printf("  fig4 64 nodes   H5 %% of full-map   H0 %% of "
                "full-map   (paper: H5 71-100%%)\n");
    for (const AppRow &row : figRows) {
        std::string id = std::string("fig4/") + row.label;
        const RunRecord *h5 = find(id + "/h5");
        const RunRecord *h0 = find(id + "/h0");
        const RunRecord *full = find(id + "/hn");
        if (!h5 || !h0 || !full || full->speedup <= 0)
            continue;
        double p5 = 100.0 * h5->speedup / full->speedup;
        std::printf("  %-14s %17.1f %18.1f   %s\n", row.label, p5,
                    100.0 * h0->speedup / full->speedup,
                    p5 >= 71.0 && p5 <= 100.0 ? "in band"
                                              : "outside band");
    }
    std::printf("  fig5 TSP 256 nodes speedup (paper: full-map 142, "
                "H5 134):");
    for (const char *p : {"H0", "H1", "H5", "FULL"}) {
        if (const RunRecord *r = find(std::string("fig5/tsp256/") + p))
            std::printf(" %s %.1f", p, r->speedup);
    }
    std::printf("\n");
}

} // namespace swexbench
