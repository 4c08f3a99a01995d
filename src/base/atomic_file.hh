/**
 * @file
 * Crash- and race-safe whole-file writes. Every durable artifact the
 * simulator persists (cached swex-run-v1 records) goes through
 * atomicWriteFile(): the bytes land in a
 * uniquely named temporary sibling first and are rename(2)d over the
 * final path only once fully written, so readers — and concurrent
 * writers racing to produce the same key — only ever observe complete
 * files.
 *
 * The temporary name is unique per writer (pid plus a process-wide
 * sequence number), which is the whole point: a shared "<path>.tmp"
 * would let two sweep workers writing the same key interleave their
 * fwrites into one temp file and rename a torn artifact — exactly the
 * corruption the tmp+rename dance exists to prevent. With unique
 * names the racers each write a private file and the renames
 * serialize in the kernel; the survivor is always one writer's
 * complete bytes.
 */

#ifndef SWEX_BASE_ATOMIC_FILE_HH
#define SWEX_BASE_ATOMIC_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace swex
{

/**
 * Atomically replace @p path with @p bytes: write a unique temp
 * sibling, fsync-free fclose, rename over @p path. Concurrent calls
 * on the same path are safe — last rename wins with a complete file.
 * @return true on success; false with @p err describing the failing
 * step (the temp file is removed on any failure).
 */
bool atomicWriteFile(const std::string &path,
                     const std::vector<std::uint8_t> &bytes,
                     std::string &err);

} // namespace swex

#endif // SWEX_BASE_ATOMIC_FILE_HH
