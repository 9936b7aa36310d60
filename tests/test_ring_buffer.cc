/**
 * @file
 * Unit tests for sim::RingBuffer: FIFO order across wrap-around,
 * growth, indexing, move-only elements, destruction accounting, and
 * value semantics (copies keep capacity; assignment refills in place).
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "sim/ring_buffer.hh"

using performa::sim::RingBuffer;

TEST(RingBuffer, PushPopIsFifo)
{
    RingBuffer<int> rb;
    EXPECT_TRUE(rb.empty());
    for (int i = 0; i < 5; ++i)
        rb.push_back(i);
    EXPECT_EQ(rb.size(), 5u);
    EXPECT_EQ(rb.front(), 0);
    EXPECT_EQ(rb.back(), 4);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(rb.front(), i);
        rb.pop_front();
    }
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, SteadyStreamWrapsWithoutGrowing)
{
    RingBuffer<int> rb;
    rb.reserve(8);
    std::size_t cap = rb.capacity();
    // A push/pop stream many times the capacity must wrap in place.
    int next_out = 0;
    for (int i = 0; i < 1000; ++i) {
        rb.push_back(i);
        if (rb.size() == 4) {
            EXPECT_EQ(rb.front(), next_out++);
            rb.pop_front();
        }
    }
    EXPECT_EQ(rb.capacity(), cap);
    while (!rb.empty()) {
        EXPECT_EQ(rb.front(), next_out++);
        rb.pop_front();
    }
    EXPECT_EQ(next_out, 1000);
}

TEST(RingBuffer, GrowthPreservesOrderAcrossTheSeam)
{
    RingBuffer<int> rb;
    rb.reserve(8);
    // Rotate so the live window straddles the physical end, then force
    // a relocation and check nothing got reordered.
    for (int i = 0; i < 6; ++i)
        rb.push_back(-1);
    for (int i = 0; i < 6; ++i)
        rb.pop_front();
    for (int i = 0; i < 20; ++i)
        rb.push_back(i);
    EXPECT_GE(rb.capacity(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(rb[static_cast<std::size_t>(i)], i);
}

TEST(RingBuffer, ReserveRoundsUpAndNeverShrinks)
{
    RingBuffer<int> rb;
    rb.reserve(100);
    std::size_t cap = rb.capacity();
    EXPECT_GE(cap, 100u);
    EXPECT_EQ(cap & (cap - 1), 0u); // power of two
    rb.reserve(10);
    EXPECT_EQ(rb.capacity(), cap);
}

TEST(RingBuffer, HoldsMoveOnlyElements)
{
    RingBuffer<std::unique_ptr<int>> rb;
    for (int i = 0; i < 12; ++i)
        rb.push_back(std::make_unique<int>(i));
    for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(rb.front());
        EXPECT_EQ(*rb.front(), i);
        rb.pop_front();
    }
}

TEST(RingBuffer, ClearAndDestructorReleaseElements)
{
    auto counter = std::make_shared<int>(0);
    struct Probe
    {
        std::shared_ptr<int> c;
        ~Probe()
        {
            if (c)
                ++*c;
        }
        Probe(std::shared_ptr<int> c) : c(std::move(c)) {}
        Probe(Probe &&) = default;
    };
    {
        RingBuffer<Probe> rb;
        for (int i = 0; i < 3; ++i)
            rb.push_back(Probe(counter));
        rb.clear();
        EXPECT_EQ(*counter, 3);
        EXPECT_TRUE(rb.empty());
        for (int i = 0; i < 2; ++i)
            rb.push_back(Probe(counter));
    }
    EXPECT_EQ(*counter, 5); // destructor drains what clear() didn't
}

TEST(RingBuffer, MoveTransfersOwnership)
{
    RingBuffer<int> a;
    a.push_back(7);
    a.push_back(8);
    RingBuffer<int> b = std::move(a);
    EXPECT_TRUE(a.empty());
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b.front(), 7);
    a = std::move(b);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a.back(), 8);
}

namespace {

/** A ring of @p cap slots whose @p n elements 0..n-1 straddle the
 *  physical end of the buffer. */
RingBuffer<int>
straddlingRing(std::size_t cap, int n)
{
    RingBuffer<int> rb(cap);
    for (std::size_t i = 0; i + 2 < cap; ++i)
        rb.push_back(-1);
    for (std::size_t i = 0; i + 2 < cap; ++i)
        rb.pop_front();
    for (int i = 0; i < n; ++i)
        rb.push_back(i);
    return rb;
}

} // namespace

TEST(RingBuffer, CopyKeepsCapacityAndOrderAcrossTheSeam)
{
    RingBuffer<int> src = straddlingRing(64, 10);
    ASSERT_EQ(src.capacity(), 64u);
    RingBuffer<int> copy(src);
    EXPECT_EQ(copy.capacity(), 64u);
    ASSERT_EQ(copy.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(copy[static_cast<std::size_t>(i)], i);
    // The copy is a value: changing it leaves the source alone.
    copy.pop_front();
    copy.push_back(99);
    EXPECT_EQ(src.front(), 0);
    EXPECT_EQ(src.back(), 9);
}

TEST(RingBuffer, CopyAssignRefillsInPlaceKeepingCapacity)
{
    RingBuffer<int> big(256);
    for (int i = 0; i < 200; ++i)
        big.push_back(-i);
    big.clear(); // head back at slot 0: &big[0] is the buffer start
    const int *buffer = &big[0];
    RingBuffer<int> src = straddlingRing(8, 5);

    big = src;
    EXPECT_EQ(big.capacity(), 256u);
    EXPECT_EQ(&big[0], buffer) << "assignment reallocated the buffer";
    ASSERT_EQ(big.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(big[static_cast<std::size_t>(i)], i);

    // A source larger than the target grows it, like a push would.
    RingBuffer<int> small(8);
    small = straddlingRing(64, 40);
    EXPECT_GE(small.capacity(), 40u);
    ASSERT_EQ(small.size(), 40u);
    EXPECT_EQ(small.back(), 39);
}
