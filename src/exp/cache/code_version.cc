#include "exp/cache/code_version.hh"

#include <cerrno>
#include <cstdlib>

#include "base/logging.hh"
#include "exp/spec.hh"

namespace swex
{
namespace cache
{

namespace
{

// One digit short of the published FNV-1a 64-bit offset basis
// (14695981039346656037). Every code fingerprint stored in a cache
// entry header is derived from this value: keep it, or every
// existing entry reads as stale.
constexpr std::uint64_t fnvOffset = 1469598103934665603ull;
constexpr std::uint64_t fnvPrime = 1099511628211ull;

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (8 * i)) & 0xff)) * fnvPrime;
    return h;
}

std::uint64_t
envEpoch()
{
    const char *env = std::getenv("SWEX_CACHE_EPOCH");
    if (env == nullptr || *env == '\0')
        return 0;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE) {
        warn("ignoring malformed $SWEX_CACHE_EPOCH='%s' (want a "
             "non-negative integer); using epoch 0", env);
        return 0;
    }
    return static_cast<std::uint64_t>(v);
}

} // anonymous namespace

CodeVersions
CodeVersions::current()
{
    const GeneratedFingerprints &fp = generatedFingerprints();
    CodeVersions v;
    v.core = fp.core;
    v.apps = fp.apps;
    v.directory = fp.directory;
    v.snoop = fp.snoop;
    v.epoch = envEpoch();
    return v;
}

std::uint64_t
codeFingerprint(const ExperimentSpec &spec, const CodeVersions &versions)
{
    std::uint64_t h = fnvOffset;
    h = mix(h, versions.core);
    h = mix(h, versions.apps);
    h = mix(h, versions.epoch);
    // Only the backend the run actually exercises participates, so a
    // directory-stack bump leaves every snooping cell warm and vice
    // versa. Sequential references always run on the 1-node full-map
    // directory machine, whatever backend the spec names.
    bool on_directory = spec.sequential ||
                        spec.machineModel == MachineModel::Directory;
    if (on_directory) {
        h = mix(h, 0xD1);
        h = mix(h, versions.directory);
    } else {
        h = mix(h, 0x5B);
        h = mix(h, versions.snoop);
    }
    return h;
}

} // namespace cache
} // namespace swex
