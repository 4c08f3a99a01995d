/**
 * @file
 * The reference kernel the benchmark times between cells to follow
 * the host's speed (see Calibration in main.cc).
 *
 * It does a fixed amount of work shaped like a simulator's: an event
 * heap, random read-modify-writes over a 4 MiB table and an
 * open-addressing hash table, all on memory allocated once. It uses
 * nothing from the simulator, so no change to the simulator changes
 * its time, and it is compiled with its own optimization level
 * (CMakeLists.txt), so a change to the project's flags does not
 * either.
 */

#include <algorithm>
#include <functional>

#include "bench.hh"

namespace swexbench
{

namespace
{

volatile std::uint64_t sink;

} // anonymous namespace

ReferenceKernel::ReferenceKernel()
    : table(std::size_t{1} << 19), keys(std::size_t{1} << 16)
{
    heap.reserve(4096);
    sampleMs(); // first touch of the tables
}

double
ReferenceKernel::sampleMs()
{
    auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ULL;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    const auto later = std::greater<std::uint64_t>();
    heap.clear();
    for (int i = 0; i < 4096; ++i) {
        heap.push_back(next() & 0xffffff);
        std::push_heap(heap.begin(), heap.end(), later);
    }
    std::fill(keys.begin(), keys.end(), 0);
    const std::size_t table_mask = table.size() - 1;
    const std::size_t key_mask = keys.size() - 1;

    std::uint64_t acc = 0;
    for (int i = 0; i < 100000; ++i) {
        // Pop the earliest event and schedule a successor.
        std::pop_heap(heap.begin(), heap.end(), later);
        std::uint64_t t = heap.back();
        heap.back() = t + 1 + (next() & 1023);
        std::push_heap(heap.begin(), heap.end(), later);

        std::uint64_t k = next();
        table[k & table_mask] += t;
        acc += table[(k >> 32) & table_mask];

        // Probe, then hit (sometimes erasing) or insert.
        std::uint64_t key = ((k >> 20) & key_mask) | 1;
        std::size_t h = (key * 0x9E3779B97F4A7C15ULL) >> 48;
        while (keys[h] != 0 && keys[h] != key)
            h = (h + 1) & key_mask;
        if (keys[h] == key) {
            acc += h;
            if (t & 1)
                keys[h] = 0;
        } else if ((i & 3) == 0) {
            keys[h] = key;
        }
    }
    sink = acc;
    return 1e3 * secondsBetween(t0, Clock::now());
}

} // namespace swexbench
