/**
 * @file
 * Name-indexed factory for the application case studies. The
 * registry is the single place that knows how to turn a textual app
 * name plus key=value parameters into a configured App instance;
 * benches, the experiment runner, and swex_cli all construct
 * applications through it, so adding a workload is a one-file edit.
 */

#ifndef SWEX_APPS_REGISTRY_HH
#define SWEX_APPS_REGISTRY_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apps/app.hh"

namespace swex
{

/**
 * Per-app configuration as an ordered key -> value map of strings
 * (e.g. {"wss","8"} for WORKER). Each app's factory parses and
 * validates its own keys; unknown keys are fatal.
 */
using AppParams = std::map<std::string, std::string>;

/**
 * Typed accessor over an AppParams map that tracks which keys were
 * consumed, so a factory can reject misspelled parameters.
 */
class ParamReader
{
  public:
    ParamReader(const AppParams &params, std::string app);

    int getInt(const std::string &key, int def);

    /** getInt restricted to non-negative values, for parameters that
     *  are counts (sizes, iterations, steps). */
    int getCount(const std::string &key, int def);

    std::uint64_t getU64(const std::string &key, std::uint64_t def);
    double getDouble(const std::string &key, double def);
    bool getBool(const std::string &key, bool def);

    /** Fatal if any parameter key was never consumed. */
    void finish() const;

  private:
    const std::string *lookup(const std::string &key);

    const AppParams &_params;
    std::string _app;
    std::vector<std::string> _consumed;
};

/**
 * The process-wide application factory. Safe for concurrent use:
 * first use constructs the built-in table exactly once (C++ magic
 * static), registration and lookup synchronize on an internal lock,
 * and entries live in a deque so references returned by entry()
 * survive later registrations. Factories themselves are pure
 * (they only read their arguments), so make() can be called from
 * any number of sweep worker threads.
 */
class AppRegistry
{
  public:
    struct Entry
    {
        std::string name;        ///< registry key (lower case)
        std::string summary;     ///< one-line description
        /** A tiny configuration every smoke test can afford to run. */
        AppParams smokeParams;
        std::function<std::unique_ptr<App>(const AppParams &,
                                           int nodes)> make;

        /**
         * Rough host cost of one run relative to WORKER (= 1.0), for
         * longest-first sweep scheduling. A hint, not a contract:
         * only the order worker threads claim grid cells depends on
         * it, never any result.
         */
        double costWeight = 1.0;

        /**
         * Machine models the app runs on, as shown by swex_cli
         * --list. Every registry app is written against the Mem API
         * only, so all of them carry coherence on either the
         * directory stack or the snooping bus; an out-of-tree app
         * that pokes directory internals would narrow this.
         */
        std::string machineModels = "directory,snoop";
    };

    /** The singleton, with the built-in apps already registered. */
    static AppRegistry &instance();

    /** Register an additional application (name must be unique). */
    void add(Entry entry);

    bool contains(const std::string &name) const;
    const Entry &entry(const std::string &name) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /**
     * Construct a configured app. @p nodes is the machine size the
     * app will run on (some apps precompute per-thread-count ground
     * truth). Fatal on unknown names or parameters.
     */
    std::unique_ptr<App> make(const std::string &name,
                              const AppParams &params,
                              int nodes) const;

  private:
    AppRegistry();

    const Entry *find(const std::string &name) const;

    /** Deque: entry() hands out references that must survive add(). */
    std::deque<Entry> _entries;
    mutable std::mutex _mutex;
};

} // namespace swex

#endif // SWEX_APPS_REGISTRY_HH
