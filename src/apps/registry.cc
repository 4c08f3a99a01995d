#include "apps/registry.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>

#include "apps/aq.hh"
#include "apps/evolve.hh"
#include "apps/micro.hh"
#include "apps/mp3d.hh"
#include "apps/smgrid.hh"
#include "apps/tsp.hh"
#include "apps/water.hh"
#include "apps/worker.hh"
#include "base/logging.hh"

namespace swex
{

ParamReader::ParamReader(const AppParams &params, std::string app)
    : _params(params), _app(std::move(app))
{
}

const std::string *
ParamReader::lookup(const std::string &key)
{
    _consumed.push_back(key);
    auto it = _params.find(key);
    return it == _params.end() ? nullptr : &it->second;
}

int
ParamReader::getInt(const std::string &key, int def)
{
    const std::string *v = lookup(key);
    if (!v)
        return def;
    errno = 0;
    char *end = nullptr;
    long n = std::strtol(v->c_str(), &end, 0);
    if (end == v->c_str() || *end != '\0')
        fatal("%s: parameter %s=%s is not an integer", _app.c_str(),
              key.c_str(), v->c_str());
    if (errno == ERANGE || n < INT_MIN || n > INT_MAX)
        fatal("%s: parameter %s=%s is out of range", _app.c_str(),
              key.c_str(), v->c_str());
    return static_cast<int>(n);
}

int
ParamReader::getCount(const std::string &key, int def)
{
    int n = getInt(key, def);
    if (n < 0)
        fatal("%s: parameter %s must be a non-negative count, got %d",
              _app.c_str(), key.c_str(), n);
    return n;
}

std::uint64_t
ParamReader::getU64(const std::string &key, std::uint64_t def)
{
    const std::string *v = lookup(key);
    if (!v)
        return def;
    // strtoull silently wraps "-1" to 2^64-1; reject the sign early.
    const char *s = v->c_str();
    while (*s == ' ' || *s == '\t')
        ++s;
    if (*s == '-')
        fatal("%s: parameter %s=%s must be non-negative",
              _app.c_str(), key.c_str(), v->c_str());
    errno = 0;
    char *end = nullptr;
    unsigned long long n = std::strtoull(v->c_str(), &end, 0);
    if (end == v->c_str() || *end != '\0')
        fatal("%s: parameter %s=%s is not an integer", _app.c_str(),
              key.c_str(), v->c_str());
    if (errno == ERANGE)
        fatal("%s: parameter %s=%s is out of range", _app.c_str(),
              key.c_str(), v->c_str());
    return n;
}

double
ParamReader::getDouble(const std::string &key, double def)
{
    const std::string *v = lookup(key);
    if (!v)
        return def;
    char *end = nullptr;
    double d = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0')
        fatal("%s: parameter %s=%s is not a number", _app.c_str(),
              key.c_str(), v->c_str());
    return d;
}

bool
ParamReader::getBool(const std::string &key, bool def)
{
    const std::string *v = lookup(key);
    if (!v)
        return def;
    if (*v == "1" || *v == "true" || *v == "yes")
        return true;
    if (*v == "0" || *v == "false" || *v == "no")
        return false;
    fatal("%s: parameter %s=%s is not a boolean", _app.c_str(),
          key.c_str(), v->c_str());
}

void
ParamReader::finish() const
{
    for (const auto &[key, value] : _params) {
        if (std::find(_consumed.begin(), _consumed.end(), key) ==
                _consumed.end()) {
            fatal("%s: unknown parameter '%s' (=%s)", _app.c_str(),
                  key.c_str(), value.c_str());
        }
    }
}

AppRegistry &
AppRegistry::instance()
{
    static AppRegistry registry;
    return registry;
}

const AppRegistry::Entry *
AppRegistry::find(const std::string &name) const
{
    // Caller holds _mutex.
    for (const Entry &e : _entries)
        if (e.name == name)
            return &e;
    return nullptr;
}

void
AppRegistry::add(Entry entry)
{
    std::lock_guard<std::mutex> hold(_mutex);
    SWEX_ASSERT(find(entry.name) == nullptr,
                "app '%s' already registered", entry.name.c_str());
    _entries.push_back(std::move(entry));
}

bool
AppRegistry::contains(const std::string &name) const
{
    std::lock_guard<std::mutex> hold(_mutex);
    return find(name) != nullptr;
}

const AppRegistry::Entry &
AppRegistry::entry(const std::string &name) const
{
    std::string all;
    {
        std::lock_guard<std::mutex> hold(_mutex);
        // The reference stays valid after unlock: entries are never
        // removed and the deque never relocates them.
        if (const Entry *e = find(name))
            return *e;
        for (const Entry &e : _entries)
            all += (all.empty() ? "" : ", ") + e.name;
    }
    fatal("unknown app '%s' (registered: %s)", name.c_str(),
          all.c_str());
}

std::vector<std::string>
AppRegistry::names() const
{
    std::lock_guard<std::mutex> hold(_mutex);
    std::vector<std::string> out;
    for (const Entry &e : _entries)
        out.push_back(e.name);
    return out;
}

std::unique_ptr<App>
AppRegistry::make(const std::string &name, const AppParams &params,
                  int nodes) const
{
    return entry(name).make(params, nodes);
}

AppRegistry::AppRegistry()
{
    add({"worker",
         "synthetic benchmark with exact worker-set sizes (Sec. 5)",
         {{"wss", "2"}, {"iterations", "2"}},
         [](const AppParams &p, int nodes) -> std::unique_ptr<App> {
             ParamReader r(p, "worker");
             WorkerConfig c;
             c.workerSetSize = r.getCount("wss", c.workerSetSize);
             c.iterations = r.getCount("iterations", c.iterations);
             c.thinkTime = static_cast<Cycles>(
                 r.getU64("think", c.thinkTime));
             r.finish();
             return std::make_unique<WorkerApp>(c, nodes);
         },
         1.0});

    add({"tsp",
         "branch-and-bound traveling salesman (Sec. 6)",
         {{"cities", "6"}, {"frontier", "8"}},
         [](const AppParams &p, int) -> std::unique_ptr<App> {
             ParamReader r(p, "tsp");
             TspConfig c;
             c.numCities = r.getCount("cities", c.numCities);
             c.seed = r.getU64("seed", c.seed);
             c.expandWork = static_cast<Cycles>(
                 r.getU64("expand_work", c.expandWork));
             c.collideLayout = r.getBool("collide", c.collideLayout);
             c.frontierTarget = r.getU64("frontier", c.frontierTarget);
             r.finish();
             return std::make_unique<TspApp>(c);
         },
         20.0});

    add({"aq",
         "adaptive quadrature over a work queue (Sec. 6)",
         {{"tolerance", "0.001"}, {"max_depth", "8"},
          {"eval_work", "500"}},
         [](const AppParams &p, int) -> std::unique_ptr<App> {
             ParamReader r(p, "aq");
             AqConfig c;
             c.tolerance = r.getDouble("tolerance", c.tolerance);
             c.maxDepth = r.getCount("max_depth", c.maxDepth);
             c.evalWork = static_cast<Cycles>(
                 r.getU64("eval_work", c.evalWork));
             r.finish();
             return std::make_unique<AqApp>(c);
         },
         2.0});

    add({"smgrid",
         "static multigrid PDE solver (Sec. 6)",
         {{"fine", "9"}, {"levels", "2"}},
         [](const AppParams &p, int) -> std::unique_ptr<App> {
             ParamReader r(p, "smgrid");
             SmgridConfig c;
             c.fineSize = r.getCount("fine", c.fineSize);
             c.levels = r.getCount("levels", c.levels);
             c.sweeps = r.getCount("sweeps", c.sweeps);
             c.vcycles = r.getCount("vcycles", c.vcycles);
             c.pointWork = static_cast<Cycles>(
                 r.getU64("point_work", c.pointWork));
             r.finish();
             return std::make_unique<SmgridApp>(c);
         },
         5.0});

    add({"evolve",
         "genome evolution as hypercube traversal (Sec. 6)",
         {{"dims", "6"}, {"walks", "1"}},
         [](const AppParams &p, int nodes) -> std::unique_ptr<App> {
             ParamReader r(p, "evolve");
             EvolveConfig c;
             c.dimensions = r.getCount("dims", c.dimensions);
             c.walksPerThread = r.getCount("walks", c.walksPerThread);
             c.seed = r.getU64("seed", c.seed);
             c.stepWork = static_cast<Cycles>(
                 r.getU64("step_work", c.stepWork));
             r.finish();
             auto app = std::make_unique<EvolveApp>(c);
             app->computeGroundTruth(nodes);
             return app;
         },
         2.0});

    add({"mp3d",
         "rarefied-fluid particle simulation (SPLASH, Sec. 6)",
         {{"particles", "64"}, {"steps", "2"}},
         [](const AppParams &p, int) -> std::unique_ptr<App> {
             ParamReader r(p, "mp3d");
             Mp3dConfig c;
             c.particles = r.getCount("particles", c.particles);
             c.steps = r.getCount("steps", c.steps);
             c.seed = r.getU64("seed", c.seed);
             c.moveWork = static_cast<Cycles>(
                 r.getU64("move_work", c.moveWork));
             r.finish();
             return std::make_unique<Mp3dApp>(c);
         },
         10.0});

    add({"water",
         "N-body molecular dynamics (SPLASH, Sec. 6)",
         {{"molecules", "8"}, {"steps", "1"}},
         [](const AppParams &p, int) -> std::unique_ptr<App> {
             ParamReader r(p, "water");
             WaterConfig c;
             c.molecules = r.getCount("molecules", c.molecules);
             c.steps = r.getCount("steps", c.steps);
             c.seed = r.getU64("seed", c.seed);
             c.pairWork = static_cast<Cycles>(
                 r.getU64("pair_work", c.pairWork));
             r.finish();
             return std::make_unique<WaterApp>(c);
         },
         15.0});

    // The sharing-pattern microworkloads share one factory shape:
    // iterations / work / jitter, kind baked into the entry.
    auto micro_factory = [](MicroKind kind) {
        return [kind](const AppParams &p,
                      int nodes) -> std::unique_ptr<App> {
            ParamReader r(p, "micro");
            MicroConfig c;
            c.iterations = r.getCount("iterations", c.iterations);
            c.workCycles = static_cast<Cycles>(
                r.getU64("work", c.workCycles));
            c.jitter = r.getU64("jitter", c.jitter);
            r.finish();
            return std::make_unique<MicroApp>(kind, c, nodes);
        };
    };

    add({"falseshare",
         "packed per-thread counters sharing blocks (machine-model "
         "study)",
         {{"iterations", "4"}},
         micro_factory(MicroKind::FalseSharing),
         0.5});

    add({"padded",
         "block-padded per-thread counters, contention-free control",
         {{"iterations", "4"}},
         micro_factory(MicroKind::Padded),
         0.5});

    add({"hotline",
         "one hot block read by all, written by one (machine-model "
         "study)",
         {{"iterations", "4"}},
         micro_factory(MicroKind::HotLine),
         0.5});
}

} // namespace swex
