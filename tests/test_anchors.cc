/**
 * @file
 * The fig anchors: simulated cycle counts and final memory-image
 * hashes of the cells the figures are checked against, pinned
 * exactly. Each runs in milliseconds, so a storage or kernel change
 * that shifts simulated behaviour fails here, not first in a sweep.
 * The cells are `swex_cli`'s defaults (victim cache of 6, seed 12345).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/runner.hh"

using namespace swex;

namespace
{

struct Anchor
{
    const char *name;
    ExperimentSpec spec;
    Tick cycles;
    std::uint64_t imageHash;
};

ExperimentSpec
cell(const char *app, int nodes, AppParams params = {})
{
    ExperimentSpec s;
    s.id = std::string("anchor/") + app;
    s.app = app;
    s.params = std::move(params);
    s.nodes = nodes;
    s.protocol = ProtocolConfig::hw(5);
    s.victimEntries = 6;
    return s;
}

ExperimentSpec
busCell(const char *app, int nodes, SnoopProtocol p, AppParams params)
{
    ExperimentSpec s = cell(app, nodes, std::move(params));
    s.machineModel = MachineModel::Snoop;
    s.snoopProtocol = p;
    return s;
}

} // anonymous namespace

TEST(FigAnchors, CyclesAndImageHashesArePinned)
{
    const Anchor anchors[] = {
        {"worker16 wss8 H5", cell("worker", 16, {{"wss", "8"}}), 20929,
         0x9581cbbf1e9caad3ull},
        {"aq16 smoke H5",
         cell("aq", 16,
              {{"tolerance", "0.001"}, {"max_depth", "8"},
               {"eval_work", "500"}}),
         29562, 0x1ccc9692828d1078ull},
        {"mp3d64 H5", cell("mp3d", 64), 60935, 0xa7ff618fd02bac13ull},
        {"tsp16 H5", cell("tsp", 16), 941053, 0xbf3c87bd479af84full},
        {"worker16 wss8 MOESI",
         busCell("worker", 16, SnoopProtocol::Moesi, {{"wss", "8"}}),
         11664, 0x9581cbbf1e9caad3ull},
        // The bus at snoop_bus's size, and past the presence filter's
        // 64 bits, where nodes n and n + 64 share a bit.
        {"mp3d64 MESI", busCell("mp3d", 64, SnoopProtocol::Mesi, {}),
         91879, 0xa7ff618fd02bac13ull},
        {"mp3d64 MOESI", busCell("mp3d", 64, SnoopProtocol::Moesi, {}),
         93344, 0xa7ff618fd02bac13ull},
        {"mp3d64 MESIF", busCell("mp3d", 64, SnoopProtocol::Mesif, {}),
         91824, 0xa7ff618fd02bac13ull},
        {"mp3d64 Dragon", busCell("mp3d", 64, SnoopProtocol::Dragon, {}),
         89187, 0xa7ff618fd02bac13ull},
        {"mp3d128 MESI", busCell("mp3d", 128, SnoopProtocol::Mesi, {}),
         107212, 0xb4c39aa88e080b8full},
    };
    Runner runner;
    for (const Anchor &a : anchors) {
        SCOPED_TRACE(a.name);
        RunRecord r = runner.execute(a.spec);
        EXPECT_EQ(r.status, "ok");
        EXPECT_TRUE(r.verified);
        EXPECT_EQ(r.simCycles, a.cycles);
        EXPECT_EQ(r.imageHash, a.imageHash);
    }
}
