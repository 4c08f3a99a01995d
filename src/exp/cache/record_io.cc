#include "exp/cache/record_io.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <memory>
#include <vector>

#include "base/atomic_file.hh"

namespace swex
{
namespace cache
{

namespace
{

/** Little-endian 64/32-bit loads, so the checksum of an entry is the
 *  same on every host (the entry layout is little-endian too). */
std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

std::uint64_t
loadLe32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap32(v);
    return v;
}

constexpr std::uint64_t xxP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t xxP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t xxP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t xxP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t xxP5 = 0x27D4EB2F165667C5ull;

std::uint64_t
xxRound(std::uint64_t acc, std::uint64_t input)
{
    acc += input * xxP2;
    acc = std::rotl(acc, 31);
    return acc * xxP1;
}

std::uint64_t
xxMerge(std::uint64_t h, std::uint64_t lane)
{
    h ^= xxRound(0, lane);
    return h * xxP1 + xxP4;
}

/** Byte count of an entry, field for field as Writer emits it, so a
 *  store can size its buffer once (encode() drives both). */
struct Sizer
{
    std::size_t n = 0;

    void raw(const void *, std::size_t len) { n += len; }
    void u8(std::uint8_t) { n += 1; }
    void u32(std::uint32_t) { n += 4; }
    void u64(std::uint64_t) { n += 8; }
    void d(double) { n += 8; }
    void str(const std::string &s) { n += 4 + s.size(); }
};

struct Writer
{
    std::vector<std::uint8_t> out;

    void
    raw(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        out.insert(out.end(), p, p + len);
    }

    void
    u8(std::uint8_t v)
    {
        out.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    d(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }
};

/** Everything before the checksum trailer: header, then the record's
 *  fields in layout order. */
template <class Out>
void
encode(Out &w, const RunRecord &r, std::uint64_t spec_key,
       std::uint64_t code_fp)
{
    w.raw(recordMagic, sizeof(recordMagic));
    w.u32(recordVersion);
    w.u64(spec_key);
    w.u64(code_fp);

    w.str(r.id);
    w.str(r.app);
    w.str(r.protocol);
    w.str(r.machineModel);
    w.u32(static_cast<std::uint32_t>(r.nodes));
    w.u8(r.sequential ? 1 : 0);
    w.u64(r.simCycles);
    w.u8(r.verified ? 1 : 0);
    w.str(r.status);
    w.u64(r.lastProgress);
    w.str(r.stallSummary);
    w.u32(r.faultDrop);
    w.u32(r.faultDup);
    w.u32(r.faultBlackout);
    w.u64(r.faultSeed);
    w.u64(r.deadline);
    w.u64(r.imageHash);
    w.d(r.trapsRaised);
    w.d(r.handlerCycles);
    w.d(r.messages);
    w.d(r.readHandlerMean);
    w.u64(r.readHandlerCount);
    w.d(r.writeHandlerMean);
    w.u64(r.writeHandlerCount);
    w.d(r.hostWallSeconds);
    w.d(r.hostEvents);
    w.u8(r.audited ? 1 : 0);
    w.u64(r.auditTransitions);
    w.u64(r.auditViolations);
    w.d(r.seqCycles);
    w.d(r.speedup);
    w.u32(static_cast<std::uint32_t>(r.workerSets.size()));
    for (std::uint64_t v : r.workerSets)
        w.u64(v);
    w.str(r.statsJson);
    w.str(r.statsText);
}

struct Reader
{
    const std::uint8_t *cur;
    const std::uint8_t *end;

    bool
    bytes(void *dst, std::size_t n)
    {
        if (static_cast<std::size_t>(end - cur) < n)
            return false;
        std::memcpy(dst, cur, n);
        cur += n;
        return true;
    }

    bool
    u8(std::uint8_t &v)
    {
        return bytes(&v, 1);
    }

    bool
    u32(std::uint32_t &v)
    {
        std::uint8_t b[4];
        if (!bytes(b, 4))
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        std::uint8_t b[8];
        if (!bytes(b, 8))
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return true;
    }

    bool
    d(double &v)
    {
        std::uint64_t bits;
        if (!u64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof(v));
        return true;
    }

    bool
    str(std::string &s)
    {
        std::uint32_t n;
        if (!u32(n) || static_cast<std::size_t>(end - cur) < n)
            return false;
        s.assign(reinterpret_cast<const char *>(cur), n);
        cur += n;
        return true;
    }
};

} // anonymous namespace

std::uint64_t
entryChecksum(const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    const std::uint8_t *const end = p + n;
    std::uint64_t h;
    if (n >= 32) {
        // Four independent lanes, one 8-byte word each per 32-byte
        // stripe, so the multiplies pipeline instead of chaining.
        std::uint64_t v1 = xxP1 + xxP2;
        std::uint64_t v2 = xxP2;
        std::uint64_t v3 = 0;
        std::uint64_t v4 = 0 - xxP1;
        for (; end - p >= 32; p += 32) {
            v1 = xxRound(v1, loadLe64(p));
            v2 = xxRound(v2, loadLe64(p + 8));
            v3 = xxRound(v3, loadLe64(p + 16));
            v4 = xxRound(v4, loadLe64(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = xxMerge(h, v1);
        h = xxMerge(h, v2);
        h = xxMerge(h, v3);
        h = xxMerge(h, v4);
    } else {
        h = xxP5;
    }
    h += static_cast<std::uint64_t>(n);
    for (; end - p >= 8; p += 8) {
        h ^= xxRound(0, loadLe64(p));
        h = std::rotl(h, 27) * xxP1 + xxP4;
    }
    if (end - p >= 4) {
        h ^= loadLe32(p) * xxP1;
        h = std::rotl(h, 23) * xxP2 + xxP3;
        p += 4;
    }
    for (; p < end; ++p) {
        h ^= *p * xxP5;
        h = std::rotl(h, 11) * xxP1;
    }
    h ^= h >> 33;
    h *= xxP2;
    h ^= h >> 29;
    h *= xxP3;
    h ^= h >> 32;
    return h;
}

bool
saveRecord(const std::string &path, const RunRecord &r,
           std::uint64_t spec_key, std::uint64_t code_fp,
           std::string &err)
{
    Sizer size;
    encode(size, r, spec_key, code_fp);
    Writer w;
    w.out.reserve(size.n + 8);
    encode(w, r, spec_key, code_fp);
    w.u64(entryChecksum(w.out.data(), w.out.size()));
    return atomicWriteFile(path, w.out, err);
}

LoadStatus
loadRecord(const std::string &path, RunRecord &out,
           std::uint64_t spec_key, std::uint64_t code_fp,
           std::string &err)
{
    // One open, one fstat, one read into a buffer of the entry's
    // exact size. Stores publish by rename, so the open file never
    // changes length under us; a short read is a truncated entry.
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        err = "no cache entry at " + path;
        return LoadStatus::Missing;
    }
    struct stat st;
    bool read_err = ::fstat(fd, &st) != 0;
    const std::size_t want =
        read_err ? 0 : static_cast<std::size_t>(st.st_size);
    auto raw = std::make_unique_for_overwrite<std::uint8_t[]>(want);
    std::size_t size = 0;
    while (!read_err && size < want) {
        const ssize_t n = ::read(fd, raw.get() + size, want - size);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            read_err = true;
        else if (n == 0)
            break;
        else
            size += static_cast<std::size_t>(n);
    }
    ::close(fd);
    if (read_err) {
        err = "I/O error reading " + path;
        return LoadStatus::Corrupt;
    }

    // Header (magic, version, key pair) plus the checksum trailer.
    if (size < sizeof(recordMagic) + 4 + 8 + 8 + 8) {
        err = path + ": truncated cache entry";
        return LoadStatus::Corrupt;
    }
    if (std::memcmp(raw.get(), recordMagic, sizeof(recordMagic)) != 0) {
        err = path + ": not a swex-rec file (bad magic)";
        return LoadStatus::Corrupt;
    }
    // The version comes before the checksum: an older layout also
    // sealed itself with an older checksum, and must read as Stale.
    Reader r{raw.get() + sizeof(recordMagic), raw.get() + size - 8};
    std::uint32_t version = 0;
    r.u32(version);
    if (version < recordVersion) {
        // An older layout holds a record an older build produced:
        // not damage, just superseded. Recompute and overwrite.
        err = path + ": swex-rec version " + std::to_string(version) +
              " predates " + std::to_string(recordVersion);
        return LoadStatus::Stale;
    }
    if (version != recordVersion) {
        err = path + ": unsupported swex-rec version " +
              std::to_string(version) + " (expected " +
              std::to_string(recordVersion) + ")";
        return LoadStatus::Corrupt;
    }
    // The checksum covers everything before the trailing u64.
    if (entryChecksum(raw.get(), size - 8) !=
        loadLe64(raw.get() + size - 8)) {
        err = path + ": checksum mismatch (corrupt cache entry)";
        return LoadStatus::Corrupt;
    }

    std::uint64_t key = 0, fp = 0;
    r.u64(key);
    r.u64(fp);
    if (key != spec_key) {
        err = path + ": stored spec key does not match this cell "
                     "(misplaced entry)";
        return LoadStatus::Corrupt;
    }
    if (fp != code_fp) {
        err = path + ": stored code fingerprint is stale";
        return LoadStatus::Stale;
    }

    RunRecord rec;
    std::uint8_t seq = 0, verified = 0, audited = 0;
    std::uint32_t nodes = 0, nsets = 0;
    bool ok = r.str(rec.id) && r.str(rec.app) && r.str(rec.protocol) &&
              r.str(rec.machineModel) && r.u32(nodes) && r.u8(seq) &&
              r.u64(rec.simCycles) && r.u8(verified) && r.str(rec.status) &&
              r.u64(rec.lastProgress) && r.str(rec.stallSummary) &&
              r.u32(rec.faultDrop) && r.u32(rec.faultDup) &&
              r.u32(rec.faultBlackout) && r.u64(rec.faultSeed) &&
              r.u64(rec.deadline) && r.u64(rec.imageHash) &&
              r.d(rec.trapsRaised) && r.d(rec.handlerCycles) &&
              r.d(rec.messages) && r.d(rec.readHandlerMean) &&
              r.u64(rec.readHandlerCount) &&
              r.d(rec.writeHandlerMean) &&
              r.u64(rec.writeHandlerCount) &&
              r.d(rec.hostWallSeconds) && r.d(rec.hostEvents) &&
              r.u8(audited) && r.u64(rec.auditTransitions) &&
              r.u64(rec.auditViolations) && r.d(rec.seqCycles) &&
              r.d(rec.speedup) && r.u32(nsets);
    if (ok) {
        rec.workerSets.resize(nsets);
        for (std::uint32_t i = 0; ok && i < nsets; ++i)
            ok = r.u64(rec.workerSets[i]);
    }
    ok = ok && r.str(rec.statsJson) && r.str(rec.statsText) &&
         r.cur == r.end;
    if (!ok) {
        err = path + ": malformed cache entry body";
        return LoadStatus::Corrupt;
    }
    rec.nodes = static_cast<int>(nodes);
    rec.sequential = seq != 0;
    rec.verified = verified != 0;
    rec.audited = audited != 0;
    out = std::move(rec);
    return LoadStatus::Ok;
}

} // namespace cache
} // namespace swex
