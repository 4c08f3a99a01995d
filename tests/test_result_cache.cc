/**
 * @file
 * Tests for the content-addressed result cache: the swex-rec-v1
 * container survives concurrent same-key stores, a hit serves the
 * byte-identical canonical document a direct run emits, invalidation
 * is component-scoped (a directory bump leaves snoop cells warm),
 * corrupt and older-layout entries fall back to recompute-and-replace,
 * spec keys and entry checksums are pinned, every bit flip or
 * truncation of a real entry is caught, and the warm path is --jobs
 * invariant.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "base/logging.hh"
#include "exp/cache/code_version.hh"
#include "exp/cache/record_io.hh"
#include "exp/cache/result_cache.hh"
#include "exp/runner.hh"

using namespace swex;

namespace
{

/** Fresh scratch directory under gtest's temp root. */
std::string
scratchDir(const std::string &tag)
{
    std::string tmpl = ::testing::TempDir() + "swexcache-" + tag +
                       "-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *d = mkdtemp(buf.data());
    EXPECT_NE(d, nullptr);
    return d != nullptr ? d : ".";
}

/** A small directory-machine WORKER cell. */
ExperimentSpec
workerSpec(const std::string &id)
{
    return ExperimentSpec{.id = id,
                          .app = "worker",
                          .params = {{"wss", "3"}, {"iterations", "2"}},
                          .protocol = ProtocolConfig::hw(5),
                          .nodes = 8,
                          .victimEntries = 6};
}

/** A snooping-bus cell over a sharing microbenchmark. */
ExperimentSpec
snoopSpec(const std::string &id)
{
    ExperimentSpec s{.id = id,
                     .app = "falseshare",
                     .params = AppRegistry::instance()
                                   .entry("falseshare").smokeParams,
                     .nodes = 4,
                     .victimEntries = 6};
    s.machineModel = MachineModel::Snoop;
    s.snoopProtocol = SnoopProtocol::Mesi;
    return s;
}

std::string
canonicalJson(const RunRecord &r)
{
    std::ostringstream os;
    r.writeJson(os, /*canonical=*/true);
    return os.str();
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<std::uint8_t> raw;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        raw.insert(raw.end(), buf, buf + n);
    std::fclose(f);
    return raw;
}

void
spit(const std::string &path, const std::vector<std::uint8_t> &raw)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // An empty vector's data() may be null, which fwrite must not get.
    if (!raw.empty())
        ASSERT_EQ(std::fwrite(raw.data(), 1, raw.size(), f), raw.size());
    std::fclose(f);
}

/** Overwrite the entry header's version field of @p raw and reseal
 *  it with the byte-serial FNV-1a trailer that version 2 entries
 *  carried. A load reads the version before it checks the checksum,
 *  so an older version reads as Stale and a newer one as Corrupt. */
void
setEntryVersion(std::vector<std::uint8_t> &raw, std::uint32_t version)
{
    for (int i = 0; i < 4; ++i)
        raw[8 + i] = static_cast<std::uint8_t>(version >> (8 * i));
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i + 8 < raw.size(); ++i)
        h = (h ^ raw[i]) * 1099511628211ull;
    for (int i = 0; i < 8; ++i)
        raw[raw.size() - 8 + i] = static_cast<std::uint8_t>(h >> (8 * i));
}

/** Pin @p path's mtime to an explicit timestamp, so LRU ordering in
 *  the eviction tests never depends on filesystem timestamp
 *  granularity or test scheduling. */
void
setMtime(const std::string &path, std::uint64_t sec)
{
    timespec ts[2];
    ts[0].tv_sec = static_cast<time_t>(sec);
    ts[0].tv_nsec = 0;
    ts[1] = ts[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), ts, 0), 0);
}

} // anonymous namespace

// The headline-bug regression at the cache layer: many writers
// racing the same entry path. Unique-temp + rename means the file at
// the path is always one writer's complete output — never a torn
// interleaving — so it must load with a passing checksum after every
// racing store.
TEST(RecordIo, ConcurrentSameKeyStoresLeaveACompleteEntry)
{
    setQuiet(true);
    const std::string path = scratchDir("race") + "/entry.swexrec";
    constexpr std::uint64_t specKey = 0x1234;
    constexpr std::uint64_t codeFp = 0x5678;
    constexpr int writers = 8;
    constexpr int rounds = 20;

    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (int t = 0; t < writers; ++t) {
        threads.emplace_back([&, t] {
            RunRecord r;
            r.id = "race/" + std::to_string(t);
            r.app = "worker";
            r.protocol = "HW5";
            r.nodes = 8;
            r.verified = true;
            r.simCycles = 1000 + t;
            r.imageHash = 0xabcd0000 + t;
            // Vary the payload size per writer so a torn mix of two
            // writers cannot accidentally parse.
            r.stallSummary = std::string(16 * (t + 1), 'x');
            for (int i = 0; i < rounds; ++i) {
                std::string err;
                ASSERT_TRUE(cache::saveRecord(path, r, specKey,
                                              codeFp, err)) << err;
            }
        });
    }
    for (auto &th : threads)
        th.join();

    RunRecord out;
    std::string err;
    ASSERT_EQ(cache::loadRecord(path, out, specKey, codeFp, err),
              cache::LoadStatus::Ok) << err;
    // The surviving entry is exactly one writer's record.
    ASSERT_GE(out.simCycles, 1000u);
    ASSERT_LT(out.simCycles, 1000u + writers);
    const auto t = out.simCycles - 1000;
    EXPECT_EQ(out.id, "race/" + std::to_string(t));
    EXPECT_EQ(out.imageHash, 0xabcd0000 + t);
    EXPECT_EQ(out.stallSummary.size(), 16 * (t + 1));
}

// The checksum is part of the on-disk contract, like the spec keys:
// these are the values entryChecksum gave fixed byte patterns when it
// was written, across the short-input tail paths and the 32-byte
// four-lane stripe boundary. The empty input, "a" and "abc" give
// XXH64's published test vectors, so the construction is the
// reference one.
TEST(RecordIo, ChecksumIsPinned)
{
    EXPECT_EQ(cache::entryChecksum("a", 1), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(cache::entryChecksum("abc", 3), 0x44bc2cf5ad770999ull);

    std::vector<std::uint8_t> pattern(4096);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 131 + 7);
    const std::pair<std::size_t, std::uint64_t> pinned[] = {
        {0, 0xef46db3751d8e999ull},
        {1, 0xa96c7f0ce858bbb7ull},
        {31, 0x6711d55e306b5d8full},
        {32, 0x07f7b8e3bc5d6e25ull},
        {33, 0x09f85eeb4e1cbe9full},
        {4096, 0xcf05adf75aca30cfull},
    };
    for (const auto &[len, sum] : pinned)
        EXPECT_EQ(cache::entryChecksum(pattern.data(), len), sum)
            << len << " bytes";
}

// A real 64-node WORKER entry (a few hundred KB, as a Figure-4 sweep
// stores) must never load as Ok once any bit of it is flipped or it
// is cut short anywhere, the checksum trailer included.
TEST(RecordIo, ChecksumCatchesBitFlipsAndTruncation)
{
    setQuiet(true);
    const ExperimentSpec spec{.id = "cache/flip",
                              .app = "worker",
                              .params = {{"wss", "16"},
                                         {"iterations", "10"}},
                              .nodes = 64,
                              .victimEntries = 6};
    Runner runner;
    const RunRecord rec = runner.execute(spec);
    ASSERT_TRUE(rec.verified);

    const std::string path = scratchDir("flip") + "/entry.swexrec";
    constexpr std::uint64_t specKey = 0x1234;
    constexpr std::uint64_t codeFp = 0x5678;
    std::string err;
    ASSERT_TRUE(cache::saveRecord(path, rec, specKey, codeFp, err)) << err;
    const std::vector<std::uint8_t> whole = slurp(path);
    ASSERT_GT(whole.size(), 64u * 1024);
    RunRecord out;
    ASSERT_EQ(cache::loadRecord(path, out, specKey, codeFp, err),
              cache::LoadStatus::Ok) << err;
    EXPECT_EQ(canonicalJson(out), canonicalJson(rec));

    // Flip one bit in place, load, and flip it back.
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    auto flipLoads = [&](std::size_t at, int bit) {
        const std::uint8_t bad =
            whole[at] ^ static_cast<std::uint8_t>(1u << bit);
        EXPECT_EQ(::pwrite(fd, &bad, 1, static_cast<off_t>(at)), 1);
        const cache::LoadStatus st =
            cache::loadRecord(path, out, specKey, codeFp, err);
        EXPECT_EQ(::pwrite(fd, &whole[at], 1, static_cast<off_t>(at)),
                  1);
        return st;
    };
    std::vector<std::size_t> offsets;
    for (std::size_t i = 0; i < 64; ++i) {
        offsets.push_back(i);
        offsets.push_back(whole.size() - 1 - i);
    }
    for (std::size_t i = 64; i + 64 < whole.size(); i += 509)
        offsets.push_back(i);
    for (std::size_t at : offsets) {
        for (int bit = 0; bit < 8; ++bit)
            EXPECT_NE(flipLoads(at, bit), cache::LoadStatus::Ok)
                << "bit " << bit << " of byte " << at;
    }
    ::close(fd);
    ASSERT_EQ(cache::loadRecord(path, out, specKey, codeFp, err),
              cache::LoadStatus::Ok) << "flips not undone: " << err;

    const std::size_t n = whole.size();
    for (std::size_t len : {std::size_t{0}, std::size_t{7},
                            std::size_t{11}, std::size_t{35},
                            std::size_t{36}, std::size_t{4096}, n / 2,
                            n - 9, n - 8, n - 5, n - 1}) {
        spit(path, std::vector<std::uint8_t>(
                       whole.begin(),
                       whole.begin() + static_cast<std::ptrdiff_t>(len)));
        EXPECT_NE(cache::loadRecord(path, out, specKey, codeFp, err),
                  cache::LoadStatus::Ok) << "truncated to " << len;
    }
}

// An entry exactly as the version-2 layout wrote it (the same body,
// sealed with a byte-serial FNV-1a trailer) is superseded, not
// damaged: it reads as Stale, whatever its old checksum says. (The
// cache-level path, counted stale and deleted, is
// ResultCache.OlderEntryVersionReadsAsStale.)
TEST(RecordIo, ParentLayoutEntryReadsAsStale)
{
    setQuiet(true);
    const std::string path = scratchDir("v2") + "/entry.swexrec";
    RunRecord rec;
    rec.id = "cache/v2";
    rec.app = "worker";
    rec.verified = true;
    rec.statsJson = std::string(1000, 'j');
    std::string err;
    ASSERT_TRUE(cache::saveRecord(path, rec, 1, 2, err)) << err;

    auto v2 = slurp(path);
    setEntryVersion(v2, 2);
    spit(path, v2);
    RunRecord out;
    EXPECT_EQ(cache::loadRecord(path, out, 1, 2, err),
              cache::LoadStatus::Stale) << err;
    EXPECT_NE(err.find("version 2"), std::string::npos) << err;
}

TEST(ResultCache, MissThenStoreThenByteIdenticalHit)
{
    setQuiet(true);
    cache::ResultCache rcache(scratchDir("roundtrip"));

    Runner cold;
    cold.attachCache(&rcache);
    const RunRecord direct = cold.execute(workerSpec("cache/rt"));
    ASSERT_TRUE(direct.verified);

    auto c = rcache.counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.stores, 1u);
    EXPECT_TRUE(fileExists(rcache.entryPath(workerSpec("cache/rt"))));

    Runner warm;
    warm.attachCache(&rcache);
    const RunRecord served = warm.execute(workerSpec("cache/rt"));

    c = rcache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(canonicalJson(served), canonicalJson(direct));

    // A different cell is a different key: no false hit.
    ExperimentSpec other = workerSpec("cache/rt");
    other.params["wss"] = "4";
    EXPECT_NE(cache::ResultCache::specKey(other),
              cache::ResultCache::specKey(workerSpec("cache/rt")));
    EXPECT_FALSE(rcache.contains(other));
}

TEST(ResultCache, InvalidationIsComponentScoped)
{
    setQuiet(true);
    const std::string dir = scratchDir("invalidate");

    const ExperimentSpec dirCell = workerSpec("cache/dir");
    const ExperimentSpec busCell = snoopSpec("cache/bus");

    {
        cache::ResultCache rcache(dir);
        Runner runner;
        runner.attachCache(&rcache);
        ASSERT_TRUE(runner.execute(dirCell).verified);
        ASSERT_TRUE(runner.execute(busCell).verified);
        ASSERT_EQ(rcache.counters().stores, 2u);
    }

    // Bump the directory component relative to the build-derived
    // fingerprints: the directory cell must go cold (stale, deleted)
    // while the snoop cell stays warm.
    cache::CodeVersions bumped = cache::CodeVersions::current();
    bumped.directory += 1;
    cache::ResultCache rcache(dir, bumped);

    RunRecord out;
    EXPECT_TRUE(rcache.lookup(busCell, out));
    EXPECT_FALSE(rcache.lookup(dirCell, out));
    auto c = rcache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.stale, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_FALSE(fileExists(rcache.entryPath(dirCell)));

    // The epoch is a whole-cache master switch: under a bumped epoch
    // even the surviving snoop entry reads stale.
    cache::CodeVersions epoch = cache::CodeVersions::current();
    epoch.epoch = 99;
    cache::ResultCache swept(dir, epoch);
    EXPECT_FALSE(swept.lookup(busCell, out));
    EXPECT_EQ(swept.counters().stale, 1u);
}

TEST(ResultCache, CorruptEntryFallsBackToRecompute)
{
    setQuiet(true);
    cache::ResultCache rcache(scratchDir("corrupt"));
    const ExperimentSpec spec = workerSpec("cache/corrupt");

    Runner runner;
    runner.attachCache(&rcache);
    const RunRecord direct = runner.execute(spec);
    ASSERT_TRUE(direct.verified);

    // Flip one payload byte: the whole-file checksum must catch it.
    const std::string path = rcache.entryPath(spec);
    auto raw = slurp(path);
    ASSERT_GT(raw.size(), 64u);
    raw[raw.size() / 2] ^= 0xff;
    spit(path, raw);

    RunRecord out;
    EXPECT_FALSE(rcache.lookup(spec, out));
    auto c = rcache.counters();
    EXPECT_EQ(c.corrupt, 1u);
    EXPECT_FALSE(fileExists(path)) << "corrupt entry not deleted";

    // The Runner's transparent fallback: recompute, re-store, and the
    // replacement serves the same bytes as the original direct run.
    const RunRecord recomputed = runner.execute(spec);
    EXPECT_EQ(canonicalJson(recomputed), canonicalJson(direct));
    const RunRecord served = runner.execute(spec);
    EXPECT_EQ(canonicalJson(served), canonicalJson(direct));
    c = rcache.counters();
    EXPECT_EQ(c.stores, 2u);
    EXPECT_EQ(c.hits, 1u);

    // Truncation is equally fatal: cut the stored entry short.
    auto whole = slurp(path);
    ASSERT_GT(whole.size(), 40u);
    whole.resize(40);
    spit(path, whole);
    EXPECT_FALSE(rcache.lookup(spec, out));
    EXPECT_EQ(rcache.counters().corrupt, 2u);
}

// An entry written by an older layout is superseded, not damaged:
// it reads as Stale (deleted, recomputed), while a version from the
// future is Corrupt.
TEST(ResultCache, OlderEntryVersionReadsAsStale)
{
    setQuiet(true);
    cache::ResultCache rcache(scratchDir("version"));
    const ExperimentSpec spec = workerSpec("cache/version");

    Runner runner;
    runner.attachCache(&rcache);
    const RunRecord direct = runner.execute(spec);
    ASSERT_TRUE(direct.verified);

    const std::string path = rcache.entryPath(spec);
    auto old_entry = slurp(path);
    setEntryVersion(old_entry, cache::recordVersion - 1);
    spit(path, old_entry);

    RunRecord out;
    EXPECT_FALSE(rcache.lookup(spec, out));
    auto c = rcache.counters();
    EXPECT_EQ(c.stale, 1u);
    EXPECT_EQ(c.corrupt, 0u);
    EXPECT_FALSE(fileExists(path)) << "stale entry not deleted";

    // The recompute stores a current-version entry in its place.
    EXPECT_EQ(canonicalJson(runner.execute(spec)), canonicalJson(direct));
    EXPECT_TRUE(rcache.lookup(spec, out));

    auto future = slurp(path);
    setEntryVersion(future, cache::recordVersion + 1);
    spit(path, future);
    std::string err;
    EXPECT_EQ(cache::loadRecord(path, out,
                                cache::ResultCache::specKey(spec),
                                cache::codeFingerprint(
                                    spec, rcache.versions()),
                                err),
              cache::LoadStatus::Corrupt);
}

// The spec key addresses every stored entry, so its value is part of
// the on-disk contract: these are the keys the parent layout produced
// for fixed cells (directory, snooping bus, and a sequential
// reference keyed on its 1-node machine). A change here orphans
// every existing cache entry.
TEST(ResultCache, SpecKeyIsPinned)
{
    ExperimentSpec dir;
    dir.id = "pin/dir";
    dir.app = "worker";
    dir.params = {{"wss", "3"}, {"iterations", "2"}};
    dir.protocol = ProtocolConfig::hw(2);
    dir.nodes = 16;
    dir.victimEntries = 6;
    dir.seed = 99;
    dir.jitterMax = 17;
    dir.jitterSeed = 5;
    dir.audit = true;
    EXPECT_EQ(cache::ResultCache::specKey(dir), 0xd63fe91b33c4ef74ull);

    ExperimentSpec seq = dir;
    seq.sequential = true;
    seq.trackSharing = true;
    EXPECT_EQ(cache::ResultCache::specKey(seq), 0xf2b0f5354447b228ull);

    ExperimentSpec bus;
    bus.id = "pin/snoop";
    bus.app = "falseshare";
    bus.params = {{"iterations", "4"}};
    bus.nodes = 4;
    bus.machineModel = MachineModel::Snoop;
    bus.snoopProtocol = SnoopProtocol::Moesi;
    bus.busArbitration = BusArbitration::RoundRobin;
    EXPECT_EQ(cache::ResultCache::specKey(bus), 0x947b1504f72aeedfull);
}

TEST(ResultCache, WarmSweepIsJobsInvariant)
{
    setQuiet(true);
    cache::ResultCache rcache(scratchDir("jobs"));

    std::vector<ExperimentSpec> specs;
    for (int wss : {2, 3, 4, 5}) {
        ExperimentSpec s = workerSpec("cache/jobs/w" +
                                      std::to_string(wss));
        s.params["wss"] = std::to_string(wss);
        specs.push_back(std::move(s));
    }

    // Cold at full parallelism, warm serially: per-cell canonical
    // documents must match, so a cached re-sweep can never depend on
    // the --jobs level that populated the cache.
    Runner cold;
    cold.attachCache(&rcache);
    const auto coldRecs = cold.runAll(specs, 4);

    Runner warm;
    warm.attachCache(&rcache);
    const auto warmRecs = warm.runAll(specs, 1);

    ASSERT_EQ(coldRecs.size(), specs.size());
    ASSERT_EQ(warmRecs.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(canonicalJson(*warmRecs[i]),
                  canonicalJson(*coldRecs[i])) << specs[i].id;

    auto c = rcache.counters();
    EXPECT_EQ(c.stores, specs.size());
    EXPECT_EQ(c.hits, specs.size());
}

TEST(ResultCache, LruEntryBudgetEvictsOldestMtime)
{
    setQuiet(true);
    const std::string dir = scratchDir("lru");
    cache::ResultCache rcache(dir, cache::CodeVersions::current(),
                              {/*maxBytes=*/0, /*maxEntries=*/2});

    ExperimentSpec a = workerSpec("cache/lru/a");
    ExperimentSpec b = workerSpec("cache/lru/b");
    ExperimentSpec c = workerSpec("cache/lru/c");
    a.seed = 11;
    b.seed = 22;
    c.seed = 33;

    Runner runner;
    runner.attachCache(&rcache);
    ASSERT_TRUE(runner.execute(a).verified);
    setMtime(rcache.entryPath(a), 1000);   // least recently used
    ASSERT_TRUE(runner.execute(b).verified);
    setMtime(rcache.entryPath(b), 2000);

    // The third store breaks the 2-entry budget: the oldest-mtime
    // entry (a) goes, the just-stored entry and the fresher survivor
    // stay, and the eviction is accounted.
    ASSERT_TRUE(runner.execute(c).verified);
    EXPECT_FALSE(rcache.contains(a));
    EXPECT_TRUE(rcache.contains(b));
    EXPECT_TRUE(rcache.contains(c));
    EXPECT_EQ(rcache.counters().evictions, 1u);
}

TEST(ResultCache, LruHitTouchesTheEntry)
{
    setQuiet(true);
    const std::string dir = scratchDir("touch");
    cache::ResultCache rcache(dir, cache::CodeVersions::current(),
                              {/*maxBytes=*/0, /*maxEntries=*/2});

    ExperimentSpec a = workerSpec("cache/touch/a");
    ExperimentSpec b = workerSpec("cache/touch/b");
    ExperimentSpec c = workerSpec("cache/touch/c");
    a.seed = 11;
    b.seed = 22;
    c.seed = 33;

    Runner runner;
    runner.attachCache(&rcache);
    ASSERT_TRUE(runner.execute(a).verified);
    ASSERT_TRUE(runner.execute(b).verified);
    // Backdate both, a older than b — then hit a. The hit must
    // refresh a's mtime, flipping the LRU order so the next eviction
    // takes b, not a.
    setMtime(rcache.entryPath(a), 1000);
    setMtime(rcache.entryPath(b), 2000);
    RunRecord out;
    ASSERT_TRUE(rcache.lookup(a, out));

    ASSERT_TRUE(runner.execute(c).verified);
    EXPECT_TRUE(rcache.contains(a)) << "hit did not refresh LRU order";
    EXPECT_FALSE(rcache.contains(b));
    EXPECT_TRUE(rcache.contains(c));
    EXPECT_EQ(rcache.counters().evictions, 1u);
}

TEST(ResultCache, ByteBudgetNeverEvictsTheNewestEntry)
{
    setQuiet(true);
    const std::string dir = scratchDir("bytes");
    // A 1-byte budget is smaller than any record: every store must
    // still keep the entry it just wrote (a cache that evicts its own
    // store can never serve anything) and evict everything older.
    cache::ResultCache rcache(dir, cache::CodeVersions::current(),
                              {/*maxBytes=*/1, /*maxEntries=*/0});

    ExperimentSpec a = workerSpec("cache/bytes/a");
    ExperimentSpec b = workerSpec("cache/bytes/b");
    a.seed = 11;
    b.seed = 22;

    Runner runner;
    runner.attachCache(&rcache);
    ASSERT_TRUE(runner.execute(a).verified);
    EXPECT_TRUE(rcache.contains(a)) << "sole entry must survive";
    setMtime(rcache.entryPath(a), 1000);

    ASSERT_TRUE(runner.execute(b).verified);
    EXPECT_FALSE(rcache.contains(a));
    EXPECT_TRUE(rcache.contains(b));
    EXPECT_EQ(rcache.counters().evictions, 1u);

    // And the surviving over-budget entry still serves a hit.
    RunRecord out;
    EXPECT_TRUE(rcache.lookup(b, out));
}

TEST(ResultCache, ConstructorTrimsAnInheritedOversizedDirectory)
{
    setQuiet(true);
    const std::string dir = scratchDir("inherit");

    ExperimentSpec a = workerSpec("cache/inherit/a");
    ExperimentSpec b = workerSpec("cache/inherit/b");
    ExperimentSpec c = workerSpec("cache/inherit/c");
    a.seed = 11;
    b.seed = 22;
    c.seed = 33;

    {
        cache::ResultCache unbounded(dir);
        Runner runner;
        runner.attachCache(&unbounded);
        ASSERT_TRUE(runner.execute(a).verified);
        ASSERT_TRUE(runner.execute(b).verified);
        ASSERT_TRUE(runner.execute(c).verified);
        setMtime(unbounded.entryPath(a), 1000);
        setMtime(unbounded.entryPath(b), 2000);
        setMtime(unbounded.entryPath(c), 3000);
    }

    // A restarted bounded server inherits three entries over a
    // 1-entry budget: construction itself trims to the newest.
    cache::ResultCache bounded(dir, cache::CodeVersions::current(),
                               {/*maxBytes=*/0, /*maxEntries=*/1});
    EXPECT_FALSE(bounded.contains(a));
    EXPECT_FALSE(bounded.contains(b));
    EXPECT_TRUE(bounded.contains(c));
    EXPECT_EQ(bounded.counters().evictions, 2u);
}
