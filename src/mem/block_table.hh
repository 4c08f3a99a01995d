/**
 * @file
 * Per-block state of one node's memory segment, kept the way the
 * hardware keeps it: one slot per memory block, found by the block's
 * offset within the segment. The home directory and the memory module
 * both store their per-block state here.
 */

#ifndef SWEX_MEM_BLOCK_TABLE_HH
#define SWEX_MEM_BLOCK_TABLE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "mem/block.hh"

namespace swex
{

/** Shared memory per node unless the machine says otherwise. */
constexpr std::uint64_t defaultSegBytes = 4ull << 20;

/**
 * A slot per block of the segment [base, base + seg_bytes), allocated
 * a page of pageBlocks slots at a time when one of them is first
 * touched. Pages never move, so a reference to a slot stays valid for
 * the table's life; a lookup is two index operations; iteration runs
 * in address order. An address outside the segment is an assertion
 * failure, never an alias of another block.
 */
template <typename T>
class BlockTable
{
  public:
    /** Slots per page: one 64-bit presence word covers a page. */
    static constexpr unsigned pageBlocks = 64;

    explicit BlockTable(Addr base = 0,
                        std::uint64_t seg_bytes = defaultSegBytes)
        : _base(base), _numBlocks(seg_bytes / blockBytes)
    {
        SWEX_ASSERT(base % blockBytes == 0 &&
                    seg_bytes % (pageBlocks * blockBytes) == 0,
                    "segment [%#llx, +%#llx) not page aligned",
                    static_cast<unsigned long long>(base),
                    static_cast<unsigned long long>(seg_bytes));
    }

    Addr base() const { return _base; }
    std::uint64_t segBytes() const { return _numBlocks * blockBytes; }

    /** The block's slot, or null if it was never touched. */
    const T *
    lookup(Addr block_addr) const
    {
        const std::size_t i = indexOf(block_addr);
        const std::size_t p = i / pageBlocks;
        if (p >= _pages.size() || !_pages[p])
            return nullptr;
        const Page &pg = *_pages[p];
        const unsigned s = i % pageBlocks;
        return (pg.present >> s) & 1 ? &pg.slots[s] : nullptr;
    }

    /** The block's slot, default-constructed when first touched. */
    T &
    entry(Addr block_addr)
    {
        const std::size_t i = indexOf(block_addr);
        const std::size_t p = i / pageBlocks;
        if (p >= _pages.size())
            _pages.resize(p + 1);
        if (!_pages[p])
            _pages[p] = std::make_unique<Page>();
        Page &pg = *_pages[p];
        const std::uint64_t bit = std::uint64_t{1} << (i % pageBlocks);
        if (!(pg.present & bit)) {
            pg.present |= bit;
            ++_size;
        }
        return pg.slots[i % pageBlocks];
    }

    /** Number of touched blocks. */
    std::size_t size() const { return _size; }

    /** Visit every touched block in address order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t p = 0; p < _pages.size(); ++p) {
            if (!_pages[p])
                continue;
            const Page &pg = *_pages[p];
            for (std::uint64_t m = pg.present; m != 0; m &= m - 1) {
                const unsigned s = std::countr_zero(m);
                fn(_base + (p * pageBlocks + s) * blockBytes,
                   pg.slots[s]);
            }
        }
    }

  private:
    struct Page
    {
        std::array<T, pageBlocks> slots{};
        std::uint64_t present = 0;   ///< bit s: slot s was touched
    };

    std::size_t
    indexOf(Addr block_addr) const
    {
        // Unsigned wrap sends an address below the base out of range.
        const Addr off = block_addr - _base;
        SWEX_ASSERT(off / blockBytes < _numBlocks &&
                    off % blockBytes == 0,
                    "%#llx is not a block of segment [%#llx, +%#llx)",
                    static_cast<unsigned long long>(block_addr),
                    static_cast<unsigned long long>(_base),
                    static_cast<unsigned long long>(segBytes()));
        return static_cast<std::size_t>(off / blockBytes);
    }

    Addr _base;
    std::uint64_t _numBlocks;
    /** Grown to the highest page touched; null until a page is. */
    std::vector<std::unique_ptr<Page>> _pages;
    std::size_t _size = 0;
};

} // namespace swex

#endif // SWEX_MEM_BLOCK_TABLE_HH
