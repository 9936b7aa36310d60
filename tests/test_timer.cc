/**
 * @file
 * Unit tests for sim::Timer: arm and fire, cancel, pending(), a copy
 * that survives an event-queue save/restore, and the panic on arming
 * a timer whose event is still pending.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/timer.hh"

using namespace performa::sim;

TEST(Timer, StartsIdleAndCancelsAsANoOp)
{
    Timer t;
    EXPECT_FALSE(t.pending());
    t.cancel();
    EXPECT_FALSE(t.pending());
}

TEST(Timer, ArmedEventFiresOnceAtItsTime)
{
    EventQueue q;
    Timer t;
    int fired = 0;
    t.arm(q, 50, [&] { ++fired; });
    EXPECT_TRUE(t.pending());
    q.runUntil(49);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(t.pending());
    q.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(t.pending());
    q.runAll();
    EXPECT_EQ(fired, 1);
}

TEST(Timer, HandlerMayReArmItsOwnTimer)
{
    // The handle is retired before the handler runs, so a periodic
    // retry re-arms from inside its own event.
    EventQueue q;
    Timer t;
    int fired = 0;
    std::function<void()> retry = [&] {
        if (++fired < 5)
            t.arm(q, q.now() + 10, [&] { retry(); });
    };
    t.arm(q, 10, [&] { retry(); });
    q.runAll();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(q.now(), 50u);
    EXPECT_FALSE(t.pending());
}

TEST(Timer, CancelDropsThePendingEvent)
{
    EventQueue q;
    Timer t;
    int fired = 0;
    t.arm(q, 50, [&] { ++fired; });
    t.cancel();
    EXPECT_FALSE(t.pending());
    EXPECT_EQ(q.pending(), 0u);
    q.runAll();
    EXPECT_EQ(fired, 0);

    // Cancel, then arm again: the way to move a deadline.
    t.arm(q, q.now() + 20, [&] { ++fired; });
    t.cancel();
    t.arm(q, q.now() + 10, [&] { fired += 10; });
    q.runAll();
    EXPECT_EQ(fired, 10);
}

TEST(Timer, ArmsUnderAReservedSeq)
{
    // A deadline that took its seq earlier fires ahead of same-tick
    // events scheduled after the reservation.
    EventQueue q;
    Timer t;
    std::vector<int> order;
    std::uint64_t seq = q.reserveSeq();
    q.schedule(10, [&] { order.push_back(2); });
    t.arm(q, 10, seq, [&] { order.push_back(1); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Timer, CopySurvivesSaveAndRestore)
{
    // Snapshots copy component state whole, timers included. The
    // saved copy must be pending again after a restore, and cancel the
    // restored event, not some other one.
    EventQueue q;
    Timer t;
    int fired = 0;
    t.arm(q, 100, [&] { ++fired; });
    EventQueue::Saved snap = q.save();
    Timer saved = t;

    q.runAll();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(t.pending());
    EXPECT_FALSE(saved.pending());

    q.restore(snap);
    t = saved;
    EXPECT_TRUE(t.pending());
    q.runAll();
    EXPECT_EQ(fired, 2);

    q.restore(snap);
    t = saved;
    t.cancel();
    q.runAll();
    EXPECT_EQ(fired, 2);
}

TEST(Timer, DestroyingACopyLeavesTheEventPending)
{
    EventQueue q;
    Timer t;
    int fired = 0;
    t.arm(q, 10, [&] { ++fired; });
    {
        Timer copy = t;
        EXPECT_TRUE(copy.pending());
    }
    EXPECT_TRUE(t.pending());
    q.runAll();
    EXPECT_EQ(fired, 1);
}

TEST(TimerDeath, ArmingAPendingTimerPanics)
{
    EventQueue q;
    Timer t;
    t.arm(q, 10, [] {});
    EXPECT_DEATH(t.arm(q, 20, [] {}), "still pending");
    std::uint64_t seq = q.reserveSeq();
    EXPECT_DEATH(t.arm(q, 20, seq, [] {}), "still pending");
}
