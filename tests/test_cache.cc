/**
 * @file
 * Unit tests for the combined direct-mapped cache and its victim
 * buffer: placement, conflict eviction, victim swap-back, coherence
 * removals/downgrades across both structures, checked op by op
 * against a reference model; and for the paged per-block table the
 * directory and memory keep their state in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "base/rng.hh"
#include "mem/block_table.hh"
#include "mem/cache.hh"

using namespace swex;

namespace
{

DataBlock
blk(Word a, Word b)
{
    DataBlock d;
    d.words = {a, b};
    return d;
}

struct CacheTest : ::testing::Test
{
    stats::Group root;
    // Tiny cache: 16 sets (256 B), victim buffer of 2.
    Cache c{256, 2, &root};

    Addr
    addrAtSet(unsigned set, unsigned way)
    {
        // Same set, different tags.
        return static_cast<Addr>(set) * blockBytes +
               static_cast<Addr>(way) * 256;
    }
};

} // anonymous namespace

TEST(BlockGeometry, AlignAndWordIndex)
{
    EXPECT_EQ(blockAlign(0x1234), 0x1230u);
    EXPECT_EQ(blockAlign(0x1230), 0x1230u);
    EXPECT_EQ(wordInBlock(0x1230), 0u);
    EXPECT_EQ(wordInBlock(0x1238), 1u);
    DataBlock d;
    d.write(0x1238, 99);
    EXPECT_EQ(d.read(0x1238), 99u);
    EXPECT_EQ(d.read(0x1230), 0u);
}

TEST_F(CacheTest, FillThenHit)
{
    Addr a = addrAtSet(3, 0);
    Eviction ev = c.fill(a, LineState::Shared, blk(7, 8));
    EXPECT_FALSE(ev.valid);
    bool vh = false;
    CacheLine *line = c.access(a, vh);
    ASSERT_NE(line, nullptr);
    EXPECT_FALSE(vh);
    EXPECT_EQ(line->data.words[0], 7u);
    EXPECT_EQ(line->state, LineState::Shared);
}

TEST_F(CacheTest, MissOnUntouchedAddress)
{
    bool vh = false;
    EXPECT_EQ(c.access(0x40, vh), nullptr);
}

TEST_F(CacheTest, ConflictGoesToVictimAndSwapsBack)
{
    Addr a = addrAtSet(5, 0);
    Addr b = addrAtSet(5, 1);
    c.fill(a, LineState::Shared, blk(1, 1));
    Eviction ev = c.fill(b, LineState::Shared, blk(2, 2));
    EXPECT_FALSE(ev.valid);   // a went to the victim buffer
    EXPECT_EQ(c.victimSize(), 1u);

    bool vh = false;
    CacheLine *line = c.access(a, vh);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(vh);
    EXPECT_EQ(line->data.words[0], 1u);
    // b was displaced into the victim buffer by the swap.
    EXPECT_TRUE(c.holds(b));
    CacheLine *main_b = c.probeMain(b);
    EXPECT_EQ(main_b, nullptr);
}

TEST_F(CacheTest, VictimOverflowEvictsOldest)
{
    Addr a0 = addrAtSet(2, 0), a1 = addrAtSet(2, 1);
    Addr a2 = addrAtSet(2, 2), a3 = addrAtSet(2, 3);
    c.fill(a0, LineState::Modified, blk(10, 0));
    c.fill(a1, LineState::Shared, blk(11, 0));   // a0 -> victim
    c.fill(a2, LineState::Shared, blk(12, 0));   // a1 -> victim
    Eviction ev = c.fill(a3, LineState::Shared, blk(13, 0));
    // Victim holds 2; pushing a2's displacement evicts oldest (a0).
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.blockAddr, a0);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.data.words[0], 10u);
    EXPECT_FALSE(c.holds(a0));
}

TEST_F(CacheTest, NoVictimCacheEvictsDirectly)
{
    stats::Group g;
    Cache direct(256, 0, &g);
    Addr a = 0 * blockBytes;
    Addr b = 256;
    direct.fill(a, LineState::Modified, blk(5, 6));
    Eviction ev = direct.fill(b, LineState::Shared, blk(7, 8));
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.blockAddr, a);
    EXPECT_FALSE(direct.holds(a));
}

TEST_F(CacheTest, RemoveFindsVictimLines)
{
    Addr a = addrAtSet(7, 0);
    Addr b = addrAtSet(7, 1);
    c.fill(a, LineState::Modified, blk(3, 4));
    c.fill(b, LineState::Shared, blk(5, 6));   // a in victim
    RemovalResult r = c.remove(a);
    EXPECT_TRUE(r.wasPresent);
    EXPECT_TRUE(r.wasDirty);
    EXPECT_EQ(r.data.words[1], 4u);
    EXPECT_FALSE(c.holds(a));
    // Removing again reports absence.
    EXPECT_FALSE(c.remove(a).wasPresent);
}

TEST_F(CacheTest, DowngradeKeepsLineShared)
{
    Addr a = addrAtSet(9, 0);
    c.fill(a, LineState::Modified, blk(1, 2));
    RemovalResult r = c.downgrade(a);
    EXPECT_TRUE(r.wasPresent);
    EXPECT_TRUE(r.wasDirty);
    CacheLine *line = c.probeMain(a);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, LineState::Shared);
    // Downgrading an already-shared line reports clean.
    EXPECT_FALSE(c.downgrade(a).wasDirty);
}

TEST_F(CacheTest, PeekDoesNotPerturb)
{
    Addr a = addrAtSet(4, 0);
    Addr b = addrAtSet(4, 1);
    c.fill(a, LineState::Shared, blk(1, 1));
    c.fill(b, LineState::Shared, blk(2, 2));
    const CacheLine *p = c.peek(a);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->data.words[0], 1u);
    // a stays in the victim buffer (no swap).
    EXPECT_EQ(c.probeMain(a), nullptr);
}

TEST_F(CacheTest, FlushAllEmptiesEverything)
{
    c.fill(addrAtSet(1, 0), LineState::Shared, blk(1, 1));
    c.fill(addrAtSet(1, 1), LineState::Shared, blk(2, 2));
    c.flushAll();
    EXPECT_FALSE(c.holds(addrAtSet(1, 0)));
    EXPECT_FALSE(c.holds(addrAtSet(1, 1)));
    EXPECT_EQ(c.victimSize(), 0u);
}

TEST_F(CacheTest, IndexMasksBlockAddress)
{
    EXPECT_EQ(c.numSets(), 16u);
    EXPECT_EQ(c.indexOf(0), 0u);
    EXPECT_EQ(c.indexOf(15 * blockBytes), 15u);
    EXPECT_EQ(c.indexOf(16 * blockBytes), 0u);
}

// ------------------------------------------------------------------
// Randomized check of the victim ring against a std::deque model
// ------------------------------------------------------------------

namespace
{

/** The cache's replacement rules over a std::deque victim FIFO. */
struct RefCache
{
    RefCache(unsigned sets, unsigned entries)
        : lines(sets), victimEntries(entries)
    {
    }

    CacheLine &
    slot(Addr a)
    {
        return lines[(a / blockBytes) % lines.size()];
    }

    std::deque<CacheLine>::iterator
    findVictim(Addr a)
    {
        return std::find_if(victim.begin(), victim.end(),
                            [a](const CacheLine &l) {
                                return l.valid() && l.blockAddr == a;
                            });
    }

    Eviction
    push(const CacheLine &line)
    {
        Eviction ev;
        if (victimEntries != 0)
            victim.push_back(line);
        if (victimEntries == 0 || victim.size() > victimEntries) {
            const CacheLine out =
                victimEntries == 0 ? line : victim.front();
            if (victimEntries != 0)
                victim.pop_front();
            ev.valid = true;
            ev.blockAddr = out.blockAddr;
            ev.dirty = out.dirty();
            ev.data = out.data;
        }
        return ev;
    }

    CacheLine *
    access(Addr a, bool &victim_hit)
    {
        victim_hit = false;
        CacheLine &s = slot(a);
        if (s.valid() && s.blockAddr == a)
            return &s;
        auto it = findVictim(a);
        if (it == victim.end())
            return nullptr;
        victim_hit = true;
        CacheLine incoming = *it;
        victim.erase(it);
        if (s.valid())
            victim.push_back(s);
        s = incoming;
        return &s;
    }

    Eviction
    fill(Addr a, LineState st, const DataBlock &d)
    {
        CacheLine &s = slot(a);
        Eviction ev;
        if (s.valid() && s.blockAddr != a)
            ev = push(s);
        s.blockAddr = a;
        s.state = st;
        s.data = d;
        return ev;
    }

    RemovalResult
    remove(Addr a)
    {
        RemovalResult r;
        CacheLine &s = slot(a);
        CacheLine *l = s.valid() && s.blockAddr == a ? &s : nullptr;
        auto it = l ? victim.end() : findVictim(a);
        if (!l && it != victim.end())
            l = &*it;
        if (!l)
            return r;
        r.wasPresent = true;
        r.wasDirty = l->dirty();
        r.data = l->data;
        if (l == &s)
            s.state = LineState::Invalid;
        else
            victim.erase(it);
        return r;
    }

    RemovalResult
    downgrade(Addr a)
    {
        RemovalResult r;
        CacheLine &s = slot(a);
        CacheLine *l = s.valid() && s.blockAddr == a ? &s : nullptr;
        if (!l) {
            for (auto &v : victim)   // the youngest copy wins
                if (v.valid() && v.blockAddr == a)
                    l = &v;
        }
        if (!l)
            return r;
        r.wasPresent = true;
        r.wasDirty = l->dirty();
        r.data = l->data;
        if (l->state == LineState::Modified)
            l->state = LineState::Shared;
        return r;
    }

    void
    flushAll()
    {
        for (auto &l : lines)
            l.state = LineState::Invalid;
        victim.clear();
    }

    /** Valid lines, main array then victim FIFO oldest first. */
    std::vector<CacheLine>
    contents() const
    {
        std::vector<CacheLine> out;
        for (const auto &l : lines)
            if (l.valid())
                out.push_back(l);
        for (const auto &l : victim)
            if (l.valid())
                out.push_back(l);
        return out;
    }

    std::vector<CacheLine> lines;
    std::deque<CacheLine> victim;
    unsigned victimEntries;
};

std::vector<CacheLine>
contents(const Cache &c)
{
    std::vector<CacheLine> out;
    c.forEachLine([&](const CacheLine &l) { out.push_back(l); });
    return out;
}

bool
sameLine(const CacheLine &a, const CacheLine &b)
{
    return a.blockAddr == b.blockAddr && a.state == b.state &&
           a.data == b.data;
}

bool
sameLines(const std::vector<CacheLine> &a,
          const std::vector<CacheLine> &b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), sameLine);
}

} // anonymous namespace

TEST(CacheVictimRing, MatchesDequeModelOnRandomOps)
{
    constexpr LineState states[] = {LineState::Shared,
                                    LineState::Modified,
                                    LineState::Exclusive,
                                    LineState::Owned};
    for (unsigned entries : {0u, 1u, 3u, 6u}) {
        SCOPED_TRACE(entries);
        stats::Group root;
        Cache c(256, entries, &root);   // 16 sets
        RefCache ref(16, entries);
        Rng rng(entries + 1);
        // 4 sets x 6 tags: every fill conflicts, the buffer churns.
        auto pick = [&] {
            return static_cast<Addr>(rng.below(4)) * blockBytes +
                   static_cast<Addr>(rng.below(6)) * 256;
        };
        for (int step = 0; step < 20000; ++step) {
            const Addr a = pick();
            switch (rng.below(4)) {
              case 0: {
                DataBlock d = blk(rng.next(), rng.next());
                LineState st = states[rng.below(4)];
                Eviction ev = c.fill(a, st, d);
                Eviction rev = ref.fill(a, st, d);
                ASSERT_EQ(ev.valid, rev.valid);
                if (ev.valid) {
                    ASSERT_EQ(ev.blockAddr, rev.blockAddr);
                    ASSERT_EQ(ev.dirty, rev.dirty);
                    ASSERT_EQ(ev.data, rev.data);
                }
                break;
              }
              case 1: {
                bool vh = false, rvh = false;
                CacheLine *l = c.access(a, vh);
                CacheLine *rl = ref.access(a, rvh);
                ASSERT_EQ(vh, rvh);
                ASSERT_EQ(l == nullptr, rl == nullptr);
                if (l) {
                    ASSERT_TRUE(sameLine(*l, *rl));
                }
                break;
              }
              case 2: {
                RemovalResult r = c.remove(a);
                RemovalResult rr = ref.remove(a);
                ASSERT_EQ(r.wasPresent, rr.wasPresent);
                ASSERT_EQ(r.wasDirty, rr.wasDirty);
                ASSERT_EQ(r.data, rr.data);
                break;
              }
              default: {
                RemovalResult r = c.downgrade(a);
                RemovalResult rr = ref.downgrade(a);
                ASSERT_EQ(r.wasPresent, rr.wasPresent);
                ASSERT_EQ(r.wasDirty, rr.wasDirty);
                ASSERT_EQ(r.data, rr.data);
                break;
              }
            }
            ASSERT_EQ(c.victimSize(), ref.victim.size());
            ASSERT_TRUE(sameLines(contents(c), ref.contents()))
                << "step " << step;
        }
    }
}

TEST(CacheTouchedSets, WalkMatchesFullWalkOnRandomOps)
{
    // 256 sets span four bitmap words; the blocks in play sit in 24
    // scattered sets, 4 tags each, so most sets are never filled.
    constexpr unsigned sets = 256;
    constexpr LineState states[] = {LineState::Shared,
                                    LineState::Modified,
                                    LineState::Exclusive,
                                    LineState::Instr};
    stats::Group root;
    Cache c(sets * blockBytes, 6, &root);
    RefCache ref(sets, 6);
    Rng rng(99);
    std::vector<Addr> blocks;
    for (int i = 0; i < 24; ++i) {
        const Addr set = rng.below(sets);
        for (Addr tag = 0; tag < 4; ++tag)
            blocks.push_back((set + tag * sets) * blockBytes);
    }
    std::vector<bool> filled(sets, false);   // since the last flush
    for (int step = 0; step < 20000; ++step) {
        const Addr a = blocks[rng.below(blocks.size())];
        const unsigned op = static_cast<unsigned>(rng.below(100));
        if (op < 35) {
            DataBlock d = blk(rng.next(), rng.next());
            LineState st = states[rng.below(4)];
            c.fill(a, st, d);
            ref.fill(a, st, d);
            filled[c.indexOf(a)] = true;
        } else if (op < 65) {
            bool vh = false, rvh = false;
            c.access(a, vh);
            ref.access(a, rvh);
        } else if (op < 80) {
            c.remove(a);
            ref.remove(a);
        } else if (op < 99) {
            c.downgrade(a);
            ref.downgrade(a);
        } else {
            c.flushAll();
            ref.flushAll();
            filled.assign(sets, false);
        }
        // The touched-set walk visits exactly what a walk of every
        // set and then the victim FIFO visits, in the same order.
        ASSERT_TRUE(sameLines(contents(c), ref.contents()))
            << "step " << step;
        for (Addr b : blocks) {
            ASSERT_EQ(c.setTouched(b), filled[c.indexOf(b)]);
            if (!c.setTouched(b)) {
                ASSERT_EQ(c.peek(b), nullptr) << "step " << step;
            }
        }
    }
}

// ------------------------------------------------------------------
// BlockTable
// ------------------------------------------------------------------

namespace
{

/** A segment that does not start at 0, so below-base addresses exist. */
constexpr Addr segBase = 3 * defaultSegBytes;

} // anonymous namespace

TEST(BlockTable, UntouchedBlocksReadNull)
{
    BlockTable<Word> t(segBase);
    EXPECT_EQ(t.lookup(segBase), nullptr);
    t.entry(segBase + blockBytes) = 5;
    // Same page, still untouched.
    EXPECT_EQ(t.lookup(segBase), nullptr);
    ASSERT_NE(t.lookup(segBase + blockBytes), nullptr);
    EXPECT_EQ(*t.lookup(segBase + blockBytes), 5u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(BlockTable, SlotsStayPutAcrossManyPages)
{
    BlockTable<Word> t(segBase);
    Word &first = t.entry(segBase);
    first = 42;
    // 12000 blocks, every third one: spans ~560 pages.
    std::vector<Word *> slots;
    for (Word i = 0; i < 12000; ++i) {
        Word &w = t.entry(segBase + (1 + 3 * i) * blockBytes);
        w = i;
        slots.push_back(&w);
    }
    EXPECT_EQ(&first, t.lookup(segBase));
    EXPECT_EQ(first, 42u);
    for (Word i = 0; i < 12000; ++i) {
        ASSERT_EQ(slots[i], t.lookup(segBase + (1 + 3 * i) * blockBytes));
        ASSERT_EQ(*slots[i], i);
    }
    EXPECT_EQ(t.size(), 12001u);
    t.entry(segBase);   // touching again does not count twice
    EXPECT_EQ(t.size(), 12001u);
}

TEST(BlockTable, IteratesInAddressOrder)
{
    BlockTable<Word> t(segBase);
    Rng rng(7);
    std::vector<Addr> touched;
    for (int i = 0; i < 3000; ++i) {
        Addr a = segBase +
                 rng.below(defaultSegBytes / blockBytes) * blockBytes;
        t.entry(a) = a;
        touched.push_back(a);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    std::vector<Addr> seen;
    t.forEach([&](Addr a, const Word &w) {
        EXPECT_EQ(w, a);
        seen.push_back(a);
    });
    EXPECT_EQ(seen, touched);
    EXPECT_EQ(t.size(), touched.size());
}

TEST(BlockTableDeathTest, OutOfSegmentAddressDies)
{
    BlockTable<Word> t(segBase);
    EXPECT_DEATH(t.entry(segBase - blockBytes), "not a block of segment");
    EXPECT_DEATH(t.lookup(segBase + defaultSegBytes),
                 "not a block of segment");
    EXPECT_DEATH(t.entry(segBase + 8), "not a block of segment");
}
