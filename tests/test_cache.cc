/**
 * @file
 * Unit and property tests for the LRU file cache, including the
 * dynamic-pinning behaviour that exposes VIA-PRESS-5 to the
 * pin-exhaustion fault, and a differential test against a reference
 * list-and-map LRU.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <random>
#include <vector>

#include "press/cache.hh"

using namespace performa;
using press::FileCache;

namespace {
/** An eviction callback for tests that do not watch evictions. */
constexpr auto noEvict = [](sim::FileId) {};
} // namespace

TEST(FileCache, InsertAndContains)
{
    FileCache c(4 * 100, 100); // 4 files
    EXPECT_TRUE(c.insert(1, noEvict));
    EXPECT_TRUE(c.contains(1));
    EXPECT_FALSE(c.contains(2));
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c.capacityFiles(), 4u);
}

TEST(FileCache, EvictsLeastRecentlyUsed)
{
    FileCache c(3 * 100, 100);
    std::vector<sim::FileId> evicted;
    auto cb = [&](sim::FileId f) { evicted.push_back(f); };
    c.insert(1, cb);
    c.insert(2, cb);
    c.insert(3, cb);
    c.insert(4, cb); // evicts 1
    EXPECT_EQ(evicted, (std::vector<sim::FileId>{1}));
    EXPECT_FALSE(c.contains(1));
    EXPECT_TRUE(c.contains(4));
}

TEST(FileCache, TouchProtectsFromEviction)
{
    FileCache c(3 * 100, 100);
    std::vector<sim::FileId> evicted;
    auto cb = [&](sim::FileId f) { evicted.push_back(f); };
    c.insert(1, cb);
    c.insert(2, cb);
    c.insert(3, cb);
    c.touch(1); // 2 is now LRU
    c.insert(4, cb);
    EXPECT_EQ(evicted, (std::vector<sim::FileId>{2}));
    EXPECT_TRUE(c.contains(1));
}

TEST(FileCache, ReinsertTouches)
{
    FileCache c(2 * 100, 100);
    c.insert(1, noEvict);
    c.insert(2, noEvict);
    EXPECT_TRUE(c.insert(1, noEvict)); // bumps 1
    std::vector<sim::FileId> evicted;
    c.insert(3, [&](sim::FileId f) { evicted.push_back(f); });
    EXPECT_EQ(evicted, (std::vector<sim::FileId>{2}));
}

TEST(FileCache, PinHooksGateInsertion)
{
    std::uint64_t pinned = 0;
    const std::uint64_t limit = 250;
    FileCache c(10 * 100, 100);
    c.setPinHooks(
        [&](std::uint64_t b) {
            if (pinned + b > limit)
                return false;
            pinned += b;
            return true;
        },
        [&](std::uint64_t b) { pinned -= b; });

    EXPECT_TRUE(c.insert(1, noEvict));
    EXPECT_TRUE(c.insert(2, noEvict));
    // Third pin would exceed 250: the cache sheds LRU file 1 first.
    std::vector<sim::FileId> evicted;
    EXPECT_TRUE(c.insert(3, [&](sim::FileId f) { evicted.push_back(f); }));
    EXPECT_EQ(evicted, (std::vector<sim::FileId>{1}));
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(pinned, 200u);
}

TEST(FileCache, PinImpossibleReturnsFalse)
{
    FileCache c(10 * 100, 100);
    c.setPinHooks([](std::uint64_t) { return false; },
                  [](std::uint64_t) {});
    EXPECT_FALSE(c.insert(1, noEvict));
    EXPECT_EQ(c.size(), 0u);
}

TEST(FileCache, ClearUnpinsEverything)
{
    std::uint64_t pinned = 0;
    FileCache c(10 * 100, 100);
    c.setPinHooks(
        [&](std::uint64_t b) {
            pinned += b;
            return true;
        },
        [&](std::uint64_t b) { pinned -= b; });
    c.insert(1, noEvict);
    c.insert(2, noEvict);
    EXPECT_EQ(pinned, 200u);
    c.clear();
    EXPECT_EQ(pinned, 0u);
    EXPECT_EQ(c.size(), 0u);
}

TEST(FileCache, ZeroCapacityRejectsEverything)
{
    FileCache c(0, 100);
    EXPECT_FALSE(c.insert(1, noEvict));
}

TEST(FileCache, FilesIteratesMruFirst)
{
    FileCache c(3 * 100, 100);
    c.insert(1, noEvict);
    c.insert(2, noEvict);
    c.touch(1);
    EXPECT_EQ(c.files(), (std::vector<sim::FileId>{1, 2}));
}

/** Property sweep: size never exceeds capacity for any access mix. */
class CacheCapacitySweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(CacheCapacitySweep, SizeBounded)
{
    std::size_t cap = GetParam();
    FileCache c(cap * 10, 10);
    std::mt19937_64 rng(7);
    for (int i = 0; i < 2000; ++i) {
        c.insert(static_cast<sim::FileId>(rng() % 200), noEvict);
        ASSERT_LE(c.size(), cap);
        if (i % 3 == 0)
            c.touch(static_cast<sim::FileId>(rng() % 200));
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacitySweep,
                         ::testing::Values(1, 7, 64, 199, 400));

namespace {

/**
 * The reference LRU the dense cache must match: a std::list in
 * MRU-to-LRU order plus a map from file to list position, with the
 * same insert/evict/pin algorithm written the obvious way.
 */
struct ReferenceLru
{
    std::size_t capacity;
    std::list<sim::FileId> lru;
    std::map<sim::FileId, std::list<sim::FileId>::iterator> index;
    FileCache::PinHook pin;
    FileCache::UnpinHook unpin;

    bool contains(sim::FileId f) const { return index.count(f) != 0; }

    void
    touch(sim::FileId f)
    {
        auto it = index.find(f);
        if (it != index.end())
            lru.splice(lru.begin(), lru, it->second);
    }

    template <typename OnEvict>
    void
    evictLru(OnEvict &&on_evict)
    {
        if (lru.empty())
            return;
        sim::FileId victim = lru.back();
        lru.pop_back();
        index.erase(victim);
        unpin(1);
        on_evict(victim);
    }

    template <typename OnEvict>
    bool
    insert(sim::FileId f, OnEvict &&on_evict)
    {
        if (contains(f)) {
            touch(f);
            return true;
        }
        while (index.size() >= capacity)
            evictLru(on_evict);
        while (!pin(1)) {
            if (index.empty())
                return false;
            evictLru(on_evict);
        }
        lru.push_front(f);
        index[f] = lru.begin();
        return true;
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < lru.size(); ++i)
            unpin(1);
        lru.clear();
        index.clear();
    }

    void
    restoreFiles(const std::vector<sim::FileId> &mru_to_lru)
    {
        lru.assign(mru_to_lru.begin(), mru_to_lru.end());
        index.clear();
        for (auto it = lru.begin(); it != lru.end(); ++it)
            index[*it] = it;
    }
};

/** Pin accounting for one side of the comparison: a budget in files
 *  that the test moves up and down (pin exhaustion and recovery). */
struct PinBudget
{
    const std::size_t &limit;
    std::size_t pinned = 0;
    std::size_t pins = 0;
    std::size_t unpins = 0;
    std::size_t failures = 0;

    FileCache::PinHook
    pinHook()
    {
        return [this](std::uint64_t) {
            if (pinned >= limit) {
                ++failures;
                return false;
            }
            ++pinned;
            ++pins;
            return true;
        };
    }

    FileCache::UnpinHook
    unpinHook()
    {
        return [this](std::uint64_t) {
            --pinned;
            ++unpins;
        };
    }
};

} // namespace

/** Differential: the dense cache against the reference LRU under a
 *  random mix of every operation, with a pin budget that fails. */
class CacheDifferential : public ::testing::TestWithParam<unsigned>
{};

TEST_P(CacheDifferential, MatchesReferenceLru)
{
    std::mt19937_64 rng(GetParam());
    const std::size_t cap = 1 + rng() % 40;
    std::size_t limit = cap;
    PinBudget dense_pins{limit}, ref_pins{limit};

    FileCache c(cap, 1);
    c.setPinHooks(dense_pins.pinHook(), dense_pins.unpinHook());
    ReferenceLru ref{cap, {}, {}, ref_pins.pinHook(), ref_pins.unpinHook()};

    std::vector<sim::FileId> dense_evicted, ref_evicted;
    auto dense_cb = [&](sim::FileId f) { dense_evicted.push_back(f); };
    auto ref_cb = [&](sim::FileId f) { ref_evicted.push_back(f); };

    // Mostly a small hot set, sometimes a far id so the arrays grow
    // mid-run.
    auto pick = [&]() -> sim::FileId {
        return rng() % 8 == 0 ? static_cast<sim::FileId>(rng() % 5000)
                              : static_cast<sim::FileId>(rng() % 60);
    };

    for (int i = 0; i < 4000; ++i) {
        switch (rng() % 16) {
          case 0: {
            sim::FileId f = pick();
            c.touch(f);
            ref.touch(f);
            break;
          }
          case 1:
            c.evictLru(dense_cb);
            ref.evictLru(ref_cb);
            break;
          case 2:
            if (rng() % 8 == 0) {
                c.clear();
                ref.clear();
            }
            break;
          case 3:
            if (rng() % 4 == 0) {
                // A restore: some distinct files, MRU first, no hooks.
                std::vector<sim::FileId> files;
                std::size_t n = rng() % (cap + 1);
                while (files.size() < n) {
                    sim::FileId f = pick();
                    if (std::find(files.begin(), files.end(), f) ==
                        files.end())
                        files.push_back(f);
                }
                c.restoreFiles(files);
                ref.restoreFiles(files);
            }
            break;
          case 4:
            // Pin exhaustion comes and goes, sometimes down to zero.
            limit = rng() % (cap + 2);
            break;
          default: {
            sim::FileId f = pick();
            ASSERT_EQ(c.insert(f, dense_cb), ref.insert(f, ref_cb))
                << "step " << i;
            break;
          }
        }
        ASSERT_EQ(c.size(), ref.lru.size()) << "step " << i;
        ASSERT_EQ(c.files(), std::vector<sim::FileId>(ref.lru.begin(),
                                                      ref.lru.end()))
            << "step " << i;
        ASSERT_EQ(dense_evicted, ref_evicted) << "step " << i;
        ASSERT_EQ(dense_pins.pins, ref_pins.pins) << "step " << i;
        ASSERT_EQ(dense_pins.unpins, ref_pins.unpins) << "step " << i;
        ASSERT_EQ(dense_pins.failures, ref_pins.failures) << "step " << i;
        for (sim::FileId f = 0; f < 64; ++f)
            ASSERT_EQ(c.contains(f), ref.contains(f)) << "file " << f;
    }
    EXPECT_GT(dense_pins.failures, 0u) << "the budget never ran out";
    EXPECT_FALSE(dense_evicted.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheDifferential,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));
