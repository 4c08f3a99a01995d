/**
 * @file
 * The hardware coherence directory of one node: per-block state, up to
 * five explicit pointers, the one-bit local pointer, an acknowledgment
 * counter, and the full-map bit vector used when the full-map protocol
 * is selected. The software-extended sharer lists live separately in
 * ExtDirectory.
 */

#ifndef SWEX_CORE_DIRECTORY_HH
#define SWEX_CORE_DIRECTORY_HH

#include <array>
#include <bitset>
#include <cstdint>

#include "base/logging.hh"
#include "base/types.hh"
#include "core/protocol.hh"
#include "mem/block_table.hh"

namespace swex
{

/** Upper bound on machine size (for the full-map bit vector). */
constexpr int maxNodes = 256;

/** Directory entry states. */
enum class DirState : std::uint8_t
{
    Uncached,    ///< no cached copies tracked
    Shared,      ///< read-only copies exist (hw ptrs / local / sw ext)
    Exclusive,   ///< one dirty copy, owner in ptrs[0]
    PendRead,    ///< fetching dirty data from owner for a reader
    PendWrite,   ///< invalidations outstanding, hw counting acks
    SwPendWrite, ///< invalidations outstanding, software counting acks
};

const char *dirStateName(DirState s);

/** One hardware directory entry. */
struct DirEntry
{
    DirState state = DirState::Uncached;

    /** Explicit hardware pointers (only the first hwPointers used). */
    std::array<NodeId, maxHwPointers> ptrs{};
    std::uint8_t ptrCount = 0;

    /** One-bit pointer: the home node holds a read-only copy. */
    bool localBit = false;

    /** Software extension currently holds pointers for this block. */
    bool overflowed = false;

    /** Dir1SW: more copies exist than the hardware can name. */
    bool broadcastBit = false;

    /** H0's per-block hardware bit: block touched by a remote node. */
    bool remoteTouched = false;

    /**
     * Number of traps for this block queued but not yet completed.
     * While nonzero, the hardware busy-retries new requests so queued
     * handlers always run against the state they were raised in.
     */
    std::uint32_t trapsQueued = 0;

    bool trapPending() const { return trapsQueued > 0; }

    /** Software must send the data reply on the last ack (LACK). */
    bool pendingSwSend = false;

    /** Outstanding acknowledgment count (PendWrite/SwPendWrite). */
    std::uint32_t ackCount = 0;

    /** Requester being served by the pending transaction. */
    NodeId pendingNode = invalidNode;

    /** Pending transaction is a write (vs a read). */
    bool pendingIsWrite = false;

    /** A FetchS/FetchI to the owner is outstanding. */
    bool fetchOutstanding = false;

    /**
     * Tag of the current fetch transaction. Fetches can race with the
     * grant that made the target the owner (it may not have the block
     * yet) or with the owner's writeback; the owner then NACKs and
     * the home re-fetches. The tag lets stale replies be discarded.
     */
    std::uint8_t fetchSeq = 0;

    /** Full-map sharer bit vector (only when protocol is full-map). */
    std::bitset<maxNodes> fullMap;

    // ------------------------------------------------------------

    bool
    hasPtr(NodeId n) const
    {
        for (unsigned i = 0; i < ptrCount; ++i)
            if (ptrs[i] == n)
                return true;
        return false;
    }

    /** Add a pointer; caller must ensure capacity. */
    void
    addPtr(NodeId n, int capacity)
    {
        SWEX_ASSERT(ptrCount < capacity && !hasPtr(n),
                    "directory pointer overflow or duplicate");
        ptrs[ptrCount++] = n;
    }

    void
    removePtr(NodeId n)
    {
        for (unsigned i = 0; i < ptrCount; ++i) {
            if (ptrs[i] == n) {
                ptrs[i] = ptrs[--ptrCount];
                return;
            }
        }
    }

    void clearPtrs() { ptrCount = 0; }

    /** Drop every kind of sharer annotation. */
    void
    clearSharers()
    {
        clearPtrs();
        localBit = false;
        broadcastBit = false;
        fullMap.reset();
    }
};

/**
 * The directory of one home node: an entry per block of the node's
 * memory segment, as the hardware keeps one next to each memory block
 * (paged in when first touched; an untouched block reads as absent).
 */
class Directory : public BlockTable<DirEntry>
{
  public:
    using BlockTable::BlockTable;
};

} // namespace swex

#endif // SWEX_CORE_DIRECTORY_HH
