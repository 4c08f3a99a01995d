/**
 * @file
 * Per-node main memory: the backing store for the node's segment of
 * the global shared address space. Paged (mem/block_table.hh) so that
 * 4 MB per node costs nothing until touched.
 */

#ifndef SWEX_MEM_MEMORY_HH
#define SWEX_MEM_MEMORY_HH

#include "base/types.hh"
#include "mem/block.hh"
#include "mem/block_table.hh"

namespace swex
{

/** The DRAM of one node. Timing is charged by the home controller. */
class MemoryModule
{
  public:
    /** DRAM for the segment [@p base, @p base + @p seg_bytes). */
    explicit MemoryModule(Addr base = 0,
                          std::uint64_t seg_bytes = defaultSegBytes)
        : store(base, seg_bytes)
    {
    }

    Addr segmentBase() const { return store.base(); }
    std::uint64_t segmentBytes() const { return store.segBytes(); }

    /** Read a block (zero-filled if never written). */
    const DataBlock &
    readBlock(Addr block_addr) const
    {
        static const DataBlock zero{};
        const DataBlock *b = store.lookup(block_addr);
        return b ? *b : zero;
    }

    /** Overwrite a whole block. */
    void
    writeBlock(Addr block_addr, const DataBlock &data)
    {
        store.entry(block_addr) = data;
    }

    /** Word-granularity access for software handlers and loaders. */
    Word
    readWord(Addr addr) const
    {
        return readBlock(blockAlign(addr)).read(addr);
    }

    void
    writeWord(Addr addr, Word value)
    {
        store.entry(blockAlign(addr)).write(addr, value);
    }

    std::size_t numBlocksTouched() const { return store.size(); }

    /** Visit every touched block in address order. */
    template <typename Fn>
    void
    forEachBlock(Fn &&fn) const
    {
        store.forEach(fn);
    }

  private:
    BlockTable<DataBlock> store;
};

} // namespace swex

#endif // SWEX_MEM_MEMORY_HH
