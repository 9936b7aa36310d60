/**
 * @file
 * Unit and property tests for the cluster-wide caching directory,
 * including a differential test against a reference map of vectors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "press/directory.hh"

using namespace performa;
using press::Directory;

namespace {

/** Node slots per file: the cluster size the tests below use. */
constexpr std::size_t kNodes = 8;

} // namespace

TEST(Directory, AddAndQuery)
{
    Directory d(kNodes);
    d.add(10, 1);
    d.add(10, 2);
    d.add(11, 1);
    EXPECT_EQ(d.nodesFor(10).size(), 2u);
    EXPECT_EQ(d.nodesFor(11).size(), 1u);
    EXPECT_TRUE(d.nodesFor(99).empty());
}

TEST(Directory, AddIsIdempotent)
{
    Directory d(kNodes);
    d.add(10, 1);
    d.add(10, 1);
    EXPECT_EQ(d.nodesFor(10).size(), 1u);
}

TEST(Directory, RemoveSingleEntry)
{
    Directory d(kNodes);
    d.add(10, 1);
    d.add(10, 2);
    d.remove(10, 1);
    ASSERT_EQ(d.nodesFor(10).size(), 1u);
    EXPECT_EQ(d.nodesFor(10)[0], 2u);
    d.remove(10, 2);
    EXPECT_TRUE(d.nodesFor(10).empty());
}

TEST(Directory, RemoveMissingIsNoop)
{
    Directory d(kNodes);
    d.add(10, 1);
    d.remove(10, 5);
    d.remove(77, 1);
    EXPECT_EQ(d.nodesFor(10).size(), 1u);
}

TEST(Directory, PurgeNodeRemovesAllItsEntries)
{
    Directory d(kNodes);
    for (sim::FileId f = 0; f < 100; ++f) {
        d.add(f, 1);
        if (f % 2 == 0)
            d.add(f, 2);
    }
    EXPECT_EQ(d.entriesOf(1), 100u);
    d.purgeNode(1);
    EXPECT_EQ(d.entriesOf(1), 0u);
    for (sim::FileId f = 0; f < 100; ++f) {
        if (f % 2 == 0) {
            ASSERT_EQ(d.nodesFor(f).size(), 1u);
            EXPECT_EQ(d.nodesFor(f)[0], 2u);
        } else {
            EXPECT_TRUE(d.nodesFor(f).empty());
        }
    }
}

TEST(Directory, ClearEmptiesEverything)
{
    Directory d(kNodes);
    d.add(1, 1);
    d.add(2, 2);
    d.clear();
    EXPECT_TRUE(d.nodesFor(1).empty());
    EXPECT_EQ(d.entriesOf(2), 0u);
}

/** Property: the two indices stay consistent under random ops. */
class DirectorySweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(DirectorySweep, IndicesConsistent)
{
    Directory d(kNodes);
    std::mt19937_64 rng(GetParam());
    for (int i = 0; i < 3000; ++i) {
        auto f = static_cast<sim::FileId>(rng() % 50);
        auto n = static_cast<sim::NodeId>(rng() % 4);
        switch (rng() % 3) {
          case 0:
            d.add(f, n);
            break;
          case 1:
            d.remove(f, n);
            break;
          case 2:
            if (i % 17 == 0)
                d.purgeNode(n);
            break;
        }
    }
    // Cross-check: entriesOf(n) equals the number of files listing n.
    for (sim::NodeId n = 0; n < 4; ++n) {
        std::size_t count = 0;
        for (sim::FileId f = 0; f < 50; ++f) {
            const auto &v = d.nodesFor(f);
            count += std::count(v.begin(), v.end(), n);
        }
        EXPECT_EQ(count, d.entriesOf(n)) << "node " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectorySweep,
                         ::testing::Values(1u, 7u, 1234u));

/** Differential: the flat table against a map of insertion-ordered
 *  vectors under a random mix of every operation. */
class DirectoryDifferential : public ::testing::TestWithParam<unsigned>
{};

TEST_P(DirectoryDifferential, MatchesReferenceMap)
{
    constexpr std::size_t kFiles = 300;
    Directory d(kNodes);
    std::map<sim::FileId, std::vector<sim::NodeId>> ref;
    std::mt19937_64 rng(GetParam());

    auto refRemove = [&](sim::FileId f, sim::NodeId n) {
        auto it = ref.find(f);
        if (it == ref.end())
            return;
        std::erase(it->second, n);
        if (it->second.empty())
            ref.erase(it);
    };

    for (int i = 0; i < 6000; ++i) {
        // Files arrive in rising bursts so the table grows mid-run.
        auto f = static_cast<sim::FileId>(
            rng() % std::min<std::size_t>(kFiles, 20 + i / 20));
        auto n = static_cast<sim::NodeId>(rng() % kNodes);
        switch (rng() % 10) {
          case 0:
          case 1:
          case 2:
          case 3: {
            d.add(f, n);
            auto &v = ref[f];
            if (std::find(v.begin(), v.end(), n) == v.end())
                v.push_back(n);
            break;
          }
          case 4:
          case 5:
          case 6:
            d.remove(f, n);
            refRemove(f, n);
            break;
          case 7:
            if (rng() % 16 == 0) {
                d.purgeNode(n);
                for (sim::FileId g = 0; g < kFiles; ++g)
                    refRemove(g, n);
            }
            break;
          case 8:
            if (rng() % 64 == 0) {
                d.clear();
                ref.clear();
            }
            break;
          case 9: {
            // A snapshot copy behaves like the original.
            Directory copy = d;
            d = copy;
            break;
          }
        }
        if (i % 50 != 0 && i != 5999)
            continue;
        for (sim::FileId g = 0; g < kFiles + 10; ++g) {
            auto span = d.nodesFor(g);
            std::vector<sim::NodeId> got(span.begin(), span.end());
            auto it = ref.find(g);
            std::vector<sim::NodeId> want =
                it == ref.end() ? std::vector<sim::NodeId>{} : it->second;
            ASSERT_EQ(got, want) << "file " << g << " step " << i;
        }
        for (sim::NodeId m = 0; m < kNodes; ++m) {
            std::size_t want = 0;
            for (const auto &[g, v] : ref)
                want += std::count(v.begin(), v.end(), m);
            ASSERT_EQ(d.entriesOf(m), want) << "node " << m << " step " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryDifferential,
                         ::testing::Values(1u, 7u, 99u, 1234u));
