/**
 * @file
 * The swex-rec-v1 container: one finished RunRecord, serialized field
 * for field into a checksummed binary file under the result cache.
 * Loading rehydrates a RunRecord whose every member equals the stored
 * run's, so its writeJson() output — canonical or not — is
 * byte-identical to the document the original direct run emitted;
 * that is the cache's whole correctness contract.
 *
 * The header carries the (spec key, code fingerprint) pair the entry
 * was stored under, re-validated at load time so a renamed or
 * misplaced file can never serve the wrong cell. A trailing 64-bit
 * checksum (entryChecksum, XXH64's word-at-a-time four-lane
 * construction) covers every preceding byte. A load checks magic,
 * then version, then checksum, then the key pair; any mismatch,
 * truncation, or unknown version is a structured error, which the
 * cache treats as a miss (recompute and overwrite), never a crash. An
 * entry written by an older layout version reads as Stale, like a
 * moved fingerprint, whatever checksum that layout sealed it with.
 */

#ifndef SWEX_EXP_CACHE_RECORD_IO_HH
#define SWEX_EXP_CACHE_RECORD_IO_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "exp/run_record.hh"

namespace swex
{
namespace cache
{

/** Entry layout version. 2 dropped the execution-mode string; 3
 *  replaced the byte-serial FNV-1a trailer with entryChecksum. An
 *  entry of an older version loads as Stale. */
constexpr std::uint32_t recordVersion = 3;
constexpr char recordMagic[8] = {'S', 'W', 'E', 'X', 'R', 'E', 'C',
                                 '1'};

/**
 * The entry trailer: XXH64 (seed 0) of @p n bytes at @p data, read
 * as little-endian 64-bit words in four independent lanes. Its values
 * are part of the on-disk contract (RecordIo.ChecksumIsPinned).
 */
std::uint64_t entryChecksum(const void *data, std::size_t n);

/**
 * Serialize @p record under (@p spec_key, @p code_fp) and atomically
 * replace @p path (unique-temp + rename: concurrent same-key writers
 * each produce a complete file). @return false with @p err set.
 */
bool saveRecord(const std::string &path, const RunRecord &record,
                std::uint64_t spec_key, std::uint64_t code_fp,
                std::string &err);

/** How a load ended; everything but Ok carries a structured err. */
enum class LoadStatus
{
    Ok,        ///< record rehydrated
    Missing,   ///< no file at the path
    Corrupt,   ///< bad magic/version/checksum/body, or misplaced key
    Stale,     ///< valid entry, but an older layout or a moved
               ///< code fingerprint
};

/**
 * Load and fully validate @p path, in this order: magic, version
 * (older: Stale; newer: Corrupt), the whole-file checksum, and the
 * stored (spec key, code fingerprint) against the expected pair. The
 * file is read with one open, fstat and read into a buffer of its
 * exact size. On anything but Ok, @p err holds a structured reason
 * and @p out is untouched.
 */
LoadStatus loadRecord(const std::string &path, RunRecord &out,
                      std::uint64_t spec_key, std::uint64_t code_fp,
                      std::string &err);

} // namespace cache
} // namespace swex

#endif // SWEX_EXP_CACHE_RECORD_IO_HH
