/**
 * @file
 * Unit and property tests for the cluster-wide caching directory,
 * including a differential test against a reference map of node sets,
 * for one-byte rows (8 nodes) and two-byte rows (12 nodes).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <ranges>
#include <set>
#include <vector>

#include "press/directory.hh"

using namespace performa;
using press::Directory;

namespace {

/** The cluster size most tests below use: one byte per row. */
constexpr std::size_t kNodes = 8;

/** A cluster size whose rows take two bytes. */
constexpr std::size_t kWideNodes = 12;

std::vector<sim::NodeId>
listed(const Directory &d, sim::FileId f)
{
    auto nodes = d.nodesFor(f);
    return {nodes.begin(), nodes.end()};
}

} // namespace

static_assert(std::forward_iterator<Directory::Nodes::iterator>);
static_assert(std::ranges::forward_range<Directory::Nodes>);

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
    EXPECT_EQ(listed(d, 10), std::vector<sim::NodeId>{2});
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
            EXPECT_EQ(listed(d, f), std::vector<sim::NodeId>{2});
        } else {
            EXPECT_TRUE(d.nodesFor(f).empty());
        }
    }
}

TEST(Directory, NodesForIsAscending)
{
    // Rows are bitmasks, so a row lists its nodes by id, whatever
    // order they were added in, across byte boundaries too.
    Directory d(kWideNodes);
    for (sim::NodeId n : {11u, 3u, 8u, 0u, 7u})
        d.add(5, n);
    EXPECT_EQ(listed(d, 5), (std::vector<sim::NodeId>{0, 3, 7, 8, 11}));
    EXPECT_EQ(d.nodesFor(5).size(), 5u);
    d.remove(5, 7);
    d.remove(5, 0);
    EXPECT_EQ(listed(d, 5), (std::vector<sim::NodeId>{3, 8, 11}));
    d.remove(5, 3);
    EXPECT_EQ(listed(d, 5), (std::vector<sim::NodeId>{8, 11}));
}

TEST(Directory, ReserveCoversFilesWithoutChangingContents)
{
    Directory d(kNodes);
    d.add(3, 1);
    d.reserve(1000);
    EXPECT_EQ(listed(d, 3), std::vector<sim::NodeId>{1});
    EXPECT_TRUE(d.nodesFor(999).empty());
    d.add(999, 4);
    EXPECT_EQ(listed(d, 999), std::vector<sim::NodeId>{4});
    EXPECT_EQ(d.entriesOf(4), 1u);
}

TEST(DirectoryDeath, NodeOutsideWidthPanics)
{
    Directory d(kNodes);
    d.add(1, kNodes - 1);
    EXPECT_DEATH(d.add(1, kNodes), "outside a 8-node cluster");
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
            auto v = d.nodesFor(f);
            count += std::count(v.begin(), v.end(), n);
        }
        EXPECT_EQ(count, d.entriesOf(n)) << "node " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectorySweep,
                         ::testing::Values(1u, 7u, 1234u));

/** Differential: the bitmask table against a map of node sets under
 *  a random mix of every operation. A row lists its nodes in id
 *  order, not in the order they were added, so the comparison is by
 *  set; Directory.NodesForIsAscending pins the order itself. */
static void
matchesReferenceMap(std::size_t width, unsigned seed)
{
    constexpr std::size_t kFiles = 300;
    Directory d(width);
    std::map<sim::FileId, std::set<sim::NodeId>> ref;
    std::mt19937_64 rng(seed);

    auto refRemove = [&](sim::FileId f, sim::NodeId n) {
        auto it = ref.find(f);
        if (it == ref.end())
            return;
        it->second.erase(n);
        if (it->second.empty())
            ref.erase(it);
    };

    for (int i = 0; i < 6000; ++i) {
        // Files arrive in rising bursts so the table grows mid-run.
        auto f = static_cast<sim::FileId>(
            rng() % std::min<std::size_t>(kFiles, 20 + i / 20));
        auto n = static_cast<sim::NodeId>(rng() % width);
        switch (rng() % 10) {
          case 0:
          case 1:
          case 2:
          case 3:
            d.add(f, n);
            ref[f].insert(n);
            break;
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
            auto nodes = d.nodesFor(g);
            std::set<sim::NodeId> got(nodes.begin(), nodes.end());
            auto it = ref.find(g);
            std::set<sim::NodeId> want =
                it == ref.end() ? std::set<sim::NodeId>{} : it->second;
            ASSERT_EQ(got, want) << "file " << g << " step " << i;
            ASSERT_EQ(nodes.size(), want.size()) << "file " << g;
        }
        for (sim::NodeId m = 0; m < width; ++m) {
            std::size_t want = 0;
            for (const auto &[g, v] : ref)
                want += v.count(m);
            ASSERT_EQ(d.entriesOf(m), want) << "node " << m << " step " << i;
        }
    }
}

class DirectoryDifferential : public ::testing::TestWithParam<unsigned>
{};

TEST_P(DirectoryDifferential, MatchesReferenceMap)
{
    matchesReferenceMap(kNodes, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryDifferential,
                         ::testing::Values(1u, 7u, 99u, 1234u));

/** The same, with rows of two bytes. */
class DirectoryDifferentialWide : public ::testing::TestWithParam<unsigned>
{};

TEST_P(DirectoryDifferentialWide, MatchesReferenceMap)
{
    matchesReferenceMap(kWideNodes, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryDifferentialWide,
                         ::testing::Values(1u, 7u, 99u, 1234u));
