/**
 * @file
 * Unit and property tests for the TLB model (§3.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>

#include "arch/machines.hh"
#include "mem/tlb.hh"
#include "sim/random.hh"

namespace aosd
{
namespace
{

TlbDesc
smallTagged()
{
    TlbDesc d;
    d.entries = 4;
    d.processIdTags = true;
    d.pidCount = 64;
    d.lockableEntries = 2;
    return d;
}

TEST(Tlb, MissThenHit)
{
    Tlb tlb(smallTagged());
    EXPECT_FALSE(tlb.lookup(0x10, 1).hit);
    tlb.insert(0x10, 1, 0x99, {});
    TlbLookup r = tlb.lookup(0x10, 1);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.pfn, 0x99u);
}

TEST(Tlb, TagsIsolateAddressSpaces)
{
    Tlb tlb(smallTagged());
    tlb.insert(0x10, 1, 0xA, {});
    EXPECT_TRUE(tlb.lookup(0x10, 1).hit);
    EXPECT_FALSE(tlb.lookup(0x10, 2).hit); // other ASID misses
}

TEST(Tlb, UntaggedIgnoresAsid)
{
    TlbDesc d = smallTagged();
    d.processIdTags = false;
    Tlb tlb(d);
    tlb.insert(0x10, 1, 0xA, {});
    EXPECT_TRUE(tlb.lookup(0x10, 2).hit); // no tags: shared entry
}

TEST(Tlb, LruVictimSelection)
{
    Tlb tlb(smallTagged());
    for (Vpn v = 0; v < 4; ++v)
        tlb.insert(v, 1, v, {});
    // Touch 0..2 so 3 is LRU.
    tlb.lookup(0, 1);
    tlb.lookup(1, 1);
    tlb.lookup(2, 1);
    tlb.insert(0x50, 1, 0x50, {});
    EXPECT_FALSE(tlb.lookup(3, 1).hit);   // evicted
    EXPECT_TRUE(tlb.lookup(0x50, 1).hit); // inserted
    EXPECT_TRUE(tlb.lookup(0, 1).hit);
}

TEST(Tlb, LockedEntriesSurviveReplacement)
{
    Tlb tlb(smallTagged());
    tlb.insert(0x1, 1, 1, {}, /*locked=*/true);
    for (Vpn v = 0x10; v < 0x20; ++v)
        tlb.insert(v, 1, v, {});
    EXPECT_TRUE(tlb.lookup(0x1, 1).hit); // never evicted
}

TEST(Tlb, SwitchContextPurgesOnlyUntagged)
{
    Tlb tagged(smallTagged());
    tagged.insert(0x10, 1, 1, {});
    EXPECT_EQ(tagged.switchContext(), 0u);
    EXPECT_TRUE(tagged.lookup(0x10, 1).hit);

    TlbDesc d = smallTagged();
    d.processIdTags = false;
    d.purgeAllCycles = 32;
    Tlb untagged(d);
    untagged.insert(0x10, 1, 1, {});
    EXPECT_EQ(untagged.switchContext(), 32u);
    EXPECT_FALSE(untagged.lookup(0x10, 1).hit);
}

TEST(Tlb, InvalidateAsidOnlyDropsThatSpace)
{
    Tlb tlb(smallTagged());
    tlb.insert(0x10, 1, 1, {});
    tlb.insert(0x11, 2, 2, {});
    tlb.invalidateAsid(1);
    EXPECT_FALSE(tlb.lookup(0x10, 1).hit);
    EXPECT_TRUE(tlb.lookup(0x11, 2).hit);
}

TEST(Tlb, MissCostsFollowManagementStyle)
{
    TlbDesc sw;
    sw.entries = 4;
    sw.management = TlbManagement::Software;
    sw.swUserMissCycles = 12;
    sw.swKernelMissCycles = 300;
    Tlb s(sw);
    EXPECT_EQ(s.lookup(1, 0, false).missCycles, 12u);
    EXPECT_EQ(s.lookup(1, 0, true).missCycles, 300u);

    TlbDesc hw;
    hw.entries = 4;
    hw.management = TlbManagement::Hardware;
    hw.hwMissCycles = 22;
    Tlb h(hw);
    EXPECT_EQ(h.lookup(1, 0, false).missCycles, 22u);
    EXPECT_EQ(h.lookup(1, 0, true).missCycles, 22u);
}

TEST(Tlb, StatsCountHitsAndMisses)
{
    Tlb tlb(smallTagged());
    tlb.lookup(1, 1);          // miss
    tlb.insert(1, 1, 1, {});
    tlb.lookup(1, 1);          // hit
    tlb.lookup(2, 1, true);    // kernel miss
    EXPECT_EQ(tlb.stats().get("lookups"), 3u);
    EXPECT_EQ(tlb.stats().get("hits"), 1u);
    EXPECT_EQ(tlb.stats().get("misses"), 2u);
    EXPECT_EQ(tlb.stats().get("kernel_misses"), 1u);
    EXPECT_EQ(tlb.stats().get("user_misses"), 1u);
}

TEST(Tlb, InsertUpdatesExistingEntry)
{
    Tlb tlb(smallTagged());
    tlb.insert(1, 1, 0xA, {});
    PageProt ro;
    ro.writable = false;
    tlb.insert(1, 1, 0xB, ro);
    EXPECT_EQ(tlb.validEntries(), 1u);
    TlbLookup r = tlb.lookup(1, 1);
    EXPECT_EQ(r.pfn, 0xBu);
}

TEST(Tlb, EntriesForAsidCounts)
{
    Tlb tlb(smallTagged());
    tlb.insert(1, 1, 1, {});
    tlb.insert(2, 1, 2, {});
    tlb.insert(3, 2, 3, {});
    EXPECT_EQ(tlb.entriesForAsid(1), 2u);
    EXPECT_EQ(tlb.entriesForAsid(2), 1u);
}

TEST(TlbDeathTest, AllEntriesLockedPanics)
{
    TlbDesc d;
    d.entries = 2;
    d.lockableEntries = 2;
    Tlb tlb(d);
    tlb.insert(1, 0, 1, {}, true);
    tlb.insert(2, 0, 2, {}, true);
    EXPECT_DEATH(tlb.insert(3, 0, 3, {}), "locked");
}

/** Property: a TLB of N entries never reports more than N valid. */
class TlbPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TlbPropertyTest, OccupancyNeverExceedsCapacityUnderRandomOps)
{
    Rng rng(GetParam());
    TlbDesc d;
    d.entries = 16;
    d.processIdTags = true;
    d.pidCount = 8;
    Tlb tlb(d);
    for (int i = 0; i < 5000; ++i) {
        Vpn v = rng.below(64);
        Asid a = static_cast<Asid>(rng.below(8));
        switch (rng.below(5)) {
          case 0:
            tlb.insert(v, a, v, {});
            break;
          case 1:
            tlb.invalidate(v, a);
            break;
          case 2:
            tlb.invalidateAsid(a);
            break;
          case 3:
            tlb.lookup(v, a);
            break;
          default:
            if (rng.chance(0.01))
                tlb.invalidateAll();
            break;
        }
        ASSERT_LE(tlb.validEntries(), 16u);
    }
    // Consistency: everything inserted and not invalidated is findable.
    tlb.invalidateAll();
    tlb.insert(5, 3, 55, {});
    EXPECT_TRUE(tlb.lookup(5, 3).hit);
}

TEST_P(TlbPropertyTest, HintedRefillBehavesLikeInsert)
{
    // Two mirrored TLBs driven by the same reference stream: one
    // refills with the lookup's fillCell hint (the kernel's
    // lookup-then-refill fast path), the other with plain insert().
    // Every lookup must agree — a divergence means the hinted index
    // write broke a probe-path invariant.
    Rng rng(GetParam() * 104729);
    TlbDesc d;
    d.entries = 16;
    d.processIdTags = true;
    d.pidCount = 8;
    Tlb hinted(d);
    Tlb ref(d);
    for (int i = 0; i < 20000; ++i) {
        Vpn v = rng.below(48);
        Asid a = static_cast<Asid>(rng.below(4));
        if (rng.chance(0.02)) {
            hinted.invalidate(v, a);
            ref.invalidate(v, a);
            continue;
        }
        TlbLookup h = hinted.lookup(v, a);
        TlbLookup r = ref.lookup(v, a);
        ASSERT_EQ(h.hit, r.hit) << "step " << i;
        if (!h.hit) {
            hinted.refill(v, a, v * 3, {}, h.fillCell);
            ref.insert(v, a, v * 3, {});
        } else {
            ASSERT_EQ(h.pfn, r.pfn);
        }
        ASSERT_EQ(hinted.validEntries(), ref.validEntries());
    }
}

TEST_P(TlbPropertyTest, HitAfterInsertUntilEvicted)
{
    Rng rng(GetParam() * 7919);
    TlbDesc d;
    d.entries = 8;
    d.processIdTags = true;
    d.pidCount = 4;
    Tlb tlb(d);
    for (int i = 0; i < 1000; ++i) {
        Vpn v = rng.below(32);
        Asid a = static_cast<Asid>(rng.below(4));
        tlb.insert(v, a, v * 2, {});
        TlbLookup r = tlb.lookup(v, a);
        ASSERT_TRUE(r.hit);
        ASSERT_EQ(r.pfn, v * 2);
    }
}

/** Reference model: the valid translations in recency order, most
 *  recent first. A new key takes a free entry while one exists, else
 *  evicts the least recently used unlocked entry. */
class RefLruTlb
{
  public:
    RefLruTlb(std::size_t capacity, bool tagged)
        : capacity(capacity), tagged(tagged)
    {}

    std::optional<Pfn>
    lookup(Vpn vpn, Asid asid)
    {
        auto it = find(vpn, asid);
        if (it == order.end())
            return std::nullopt;
        order.splice(order.begin(), order, it);
        return it->pfn;
    }

    void
    insert(Vpn vpn, Asid asid, Pfn pfn, bool locked)
    {
        auto it = find(vpn, asid);
        if (it != order.end()) {
            order.erase(it);
        } else if (order.size() == capacity) {
            auto victim = std::find_if(order.rbegin(), order.rend(),
                                       [](const Entry &e) {
                                           return !e.locked;
                                       });
            order.erase(std::next(victim).base());
        }
        order.push_front({vpn, tagged ? asid : 0, pfn, locked});
    }

    void
    invalidate(Vpn vpn, Asid asid)
    {
        auto it = find(vpn, asid);
        if (it != order.end())
            order.erase(it);
    }

    void
    invalidateAsid(Asid asid)
    {
        order.remove_if([asid](const Entry &e) { return e.asid == asid; });
    }

    void invalidateAll() { order.clear(); }

    std::size_t size() const { return order.size(); }

    std::size_t
    lockedCount() const
    {
        return static_cast<std::size_t>(
            std::count_if(order.begin(), order.end(),
                          [](const Entry &e) { return e.locked; }));
    }

  private:
    struct Entry
    {
        Vpn vpn;
        Asid asid;
        Pfn pfn;
        bool locked;
    };

    std::list<Entry>::iterator
    find(Vpn vpn, Asid asid)
    {
        Asid key = tagged ? asid : 0;
        return std::find_if(order.begin(), order.end(),
                            [&](const Entry &e) {
                                return e.vpn == vpn && e.asid == key;
                            });
    }

    std::size_t capacity;
    bool tagged;
    std::list<Entry> order;
};

TEST_P(TlbPropertyTest, MatchesReferenceLruModel)
{
    // Random inserts (some locked), lookups and the three
    // invalidations against the reference model, on a tagged and an
    // untagged TLB: every lookup must agree on hit/miss and pfn, and
    // the occupancy must agree after every step.
    for (bool tagged : {true, false}) {
        SCOPED_TRACE(tagged ? "tagged" : "untagged");
        Rng rng(GetParam() * 6007 + tagged);
        TlbDesc d;
        d.entries = 8;
        d.processIdTags = tagged;
        d.pidCount = tagged ? 4 : 0;
        d.lockableEntries = 2;
        Tlb tlb(d);
        RefLruTlb ref(d.entries, tagged);
        for (int i = 0; i < 20000; ++i) {
            Vpn v = rng.below(24);
            Asid a = static_cast<Asid>(rng.below(4));
            std::uint64_t op = rng.below(100);
            if (op < 40) {
                TlbLookup got = tlb.lookup(v, a);
                std::optional<Pfn> want = ref.lookup(v, a);
                ASSERT_EQ(got.hit, want.has_value()) << "step " << i;
                if (want) {
                    ASSERT_EQ(got.pfn, *want) << "step " << i;
                }
            } else if (op < 85) {
                // Keep at least half the entries unlocked so a
                // victim always exists.
                bool locked = rng.chance(0.05) &&
                              ref.lockedCount() < d.entries / 2;
                Pfn pfn = rng.below(1 << 20);
                tlb.insert(v, a, pfn, {}, locked);
                ref.insert(v, a, pfn, locked);
            } else if (op < 95) {
                tlb.invalidate(v, a);
                ref.invalidate(v, a);
            } else if (op < 99) {
                tlb.invalidateAsid(a);
                ref.invalidateAsid(a);
            } else {
                tlb.invalidateAll();
                ref.invalidateAll();
            }
            ASSERT_EQ(tlb.validEntries(), ref.size()) << "step " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1991));

} // namespace
} // namespace aosd
