#include "exp/cache/record_io.hh"

#include <cstdio>
#include <cstring>
#include <vector>

#include "base/atomic_file.hh"

namespace swex
{
namespace cache
{

namespace
{

constexpr std::uint64_t fnvOffset = 1469598103934665603ull;
constexpr std::uint64_t fnvPrime = 1099511628211ull;

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * fnvPrime;
    return h;
}

struct Writer
{
    std::vector<std::uint8_t> out;

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
        out.insert(out.end(), s.begin(), s.end());
    }
};

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

bool
saveRecord(const std::string &path, const RunRecord &r,
           std::uint64_t spec_key, std::uint64_t code_fp,
           std::string &err)
{
    Writer w;
    w.out.insert(w.out.end(), recordMagic, recordMagic + 8);
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

    w.u64(fnv1a(fnvOffset, w.out.data(), w.out.size()));
    return atomicWriteFile(path, w.out, err);
}

LoadStatus
loadRecord(const std::string &path, RunRecord &out,
           std::uint64_t spec_key, std::uint64_t code_fp,
           std::string &err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        err = "no cache entry at " + path;
        return LoadStatus::Missing;
    }
    std::vector<std::uint8_t> raw;
    std::uint8_t buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        raw.insert(raw.end(), buf, buf + n);
    bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err) {
        err = "I/O error reading " + path;
        return LoadStatus::Corrupt;
    }

    if (raw.size() < 8 + 4 + 8 + 8 + 8) {
        err = path + ": truncated cache entry";
        return LoadStatus::Corrupt;
    }
    if (std::memcmp(raw.data(), recordMagic, 8) != 0) {
        err = path + ": not a swex-rec file (bad magic)";
        return LoadStatus::Corrupt;
    }
    // The checksum covers everything before the trailing u64.
    std::uint64_t stored_fnv = 0;
    for (int i = 0; i < 8; ++i) {
        stored_fnv |= static_cast<std::uint64_t>(
                          raw[raw.size() - 8 + static_cast<std::size_t>(
                                                   i)])
                      << (8 * i);
    }
    if (fnv1a(fnvOffset, raw.data(), raw.size() - 8) != stored_fnv) {
        err = path + ": checksum mismatch (corrupt cache entry)";
        return LoadStatus::Corrupt;
    }

    Reader r{raw.data() + 8, raw.data() + raw.size() - 8};
    std::uint32_t version = 0;
    std::uint64_t key = 0, fp = 0;
    if (!r.u32(version) || !r.u64(key) || !r.u64(fp)) {
        err = path + ": truncated cache header";
        return LoadStatus::Corrupt;
    }
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
