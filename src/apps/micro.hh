/**
 * @file
 * Synthetic sharing-pattern microworkloads for the machine-model
 * comparison (directory spectrum vs. snooping bus):
 *
 *  - FALSESHARE: one counter word per thread, packed so unrelated
 *    counters share cache blocks. Every increment is a coherence
 *    miss under an invalidate-based protocol (the block ping-pongs
 *    between its co-resident writers) but a cheap in-place update
 *    under Dragon.
 *  - PADDED: the same per-thread increment work with each counter in
 *    its own block, homed locally -- the contention-free control.
 *  - HOTLINE: all threads read one word every iteration and a single
 *    writer updates it -- an N-sharer hot block (the degenerate
 *    worker set the paper's WORKER sweeps toward).
 *
 * All three are controlled experiments like WORKER: hardware-barrier
 * sync only, static reference streams, and an optional `jitter`
 * parameter that perturbs per-step compute as a pure function of
 * (jitter, tid, iteration) -- so every stress seed is a distinct but
 * reproducible interleaving.
 */

#ifndef SWEX_APPS_MICRO_HH
#define SWEX_APPS_MICRO_HH

#include "apps/app.hh"
#include "runtime/shmem.hh"

namespace swex
{

enum class MicroKind
{
    FalseSharing,
    Padded,
    HotLine,
};

struct MicroConfig
{
    int iterations = 16;
    Cycles workCycles = 40;     ///< compute per iteration
    std::uint64_t jitter = 0;   ///< 0 = uniform compute
};

class MicroApp : public App
{
  public:
    MicroApp(MicroKind kind, const MicroConfig &cfg, int nodes);

    const char *name() const override;
    void setup(Machine &m) override;
    Task<void> thread(Mem &m, int tid) override;
    Task<void> sequential(Mem &m) override;
    bool verify(Machine &m) override;

    /** Controlled experiments run with no instruction footprint,
     *  like WORKER: compute segments charge pure cycles. */
    std::vector<Addr>
    footprint(Machine &, int) const override
    {
        return {};
    }

  private:
    /** Word address of thread @p tid's private counter. */
    Addr slotAddr(int tid) const;

    /** Per-(thread, iteration) compute, a pure function of cfg. */
    Cycles stepWork(int tid, int it) const;

    MicroKind kind;
    MicroConfig cfg;
    int cfgNodes = 0;    ///< ctor-supplied layout size
    int numNodes = 0;
    SharedArray slots;   ///< counters (packing depends on kind)
    Addr hotAddr = 0;    ///< HOTLINE's single shared word
};

} // namespace swex

#endif // SWEX_APPS_MICRO_HH
