/**
 * @file
 * Unit tests for the discrete-event engine: ordering, determinism,
 * cancellation, and time-advance semantics, plus a randomized
 * differential test of both tiers against a reference set ordered by
 * (when, seq).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/small_fn.hh"

using namespace performa::sim;

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.runAll();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&] {});
    q.runAll();
    q.scheduleIn(50, [&] { seen = q.now(); });
    q.runAll();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 10)
            q.scheduleIn(1, recurse);
    };
    q.scheduleIn(1, recurse);
    q.runAll();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventHandle h = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(h.pending());
    q.cancel(h);
    q.runAll();
    EXPECT_FALSE(ran);
    EXPECT_FALSE(h.pending());
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    int runs = 0;
    EventHandle h = q.schedule(10, [&] { ++runs; });
    q.runAll();
    EXPECT_FALSE(h.pending());
    q.cancel(h); // harmless
    EXPECT_EQ(runs, 1);
}

TEST(EventQueue, CancelDefaultHandleIsNoop)
{
    EventQueue q;
    EventHandle h;
    EXPECT_FALSE(h.pending());
    q.cancel(h); // must not crash
}

TEST(EventQueue, RunUntilAdvancesClockToLimit)
{
    EventQueue q;
    int runs = 0;
    q.schedule(10, [&] { ++runs; });
    q.schedule(100, [&] { ++runs; });
    q.runUntil(50);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(q.now(), 50u);
    q.runUntil(200);
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(q.now(), 200u);
}

TEST(EventQueue, RunUntilIncludesEventsAtLimit)
{
    EventQueue q;
    bool ran = false;
    q.schedule(50, [&] { ran = true; });
    q.runUntil(50);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    EventQueue q;
    EXPECT_FALSE(q.runOne());
    q.schedule(5, [] {});
    EXPECT_TRUE(q.runOne());
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, ExecutedCounterCountsOnlyFired)
{
    EventQueue q;
    EventHandle h = q.schedule(1, [] {});
    q.schedule(2, [] {});
    q.cancel(h);
    q.runAll();
    EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueue, PendingCountsOnlyLiveEvents)
{
    EventQueue q;
    EventHandle a = q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.schedule(30, [] {});
    EXPECT_EQ(q.pending(), 3u);
    q.cancel(a);
    // Quiescence checks must not see the cancelled entry.
    EXPECT_EQ(q.pending(), 2u);
    q.runAll();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, RunAllLimitNotOvershotByCancelledHead)
{
    // Regression: runAll(limit) used to check the head's time and then
    // delegate to runOne(), which skips cancelled entries and executes
    // the next live event even if it lies beyond the limit.
    EventQueue q;
    bool late_ran = false;
    EventHandle head = q.schedule(10, [] {});
    q.schedule(100, [&] { late_ran = true; });
    q.cancel(head);
    q.runAll(50);
    EXPECT_FALSE(late_ran);
    EXPECT_LE(q.now(), 50u);
    q.runAll();
    EXPECT_TRUE(late_ran);
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, RunUntilLimitNotOvershotByCancelledHead)
{
    EventQueue q;
    bool late_ran = false;
    EventHandle head = q.schedule(10, [] {});
    q.schedule(100, [&] { late_ran = true; });
    q.cancel(head);
    q.runUntil(50);
    EXPECT_FALSE(late_ran);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, RunAllBoundaryIncludesEventsAtLimit)
{
    EventQueue q;
    int runs = 0;
    q.schedule(50, [&] { ++runs; });
    q.schedule(51, [&] { ++runs; });
    q.runAll(50);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsInert)
{
    // ABA guard: cancelling frees the slot, which the next schedule
    // reuses; the generation bump must keep every old handle stale.
    EventQueue q;
    bool a_ran = false, b_ran = false;
    EventHandle a = q.schedule(10, [&] { a_ran = true; });
    EventHandle stale = a; // copy survives the cancel below
    q.cancel(a);
    EventHandle b = q.schedule(20, [&] { b_ran = true; });
    EXPECT_FALSE(stale.pending());
    EXPECT_TRUE(b.pending());
    q.cancel(stale); // must not cancel b's reused slot
    q.runAll();
    EXPECT_FALSE(a_ran);
    EXPECT_TRUE(b_ran);
}

TEST(EventQueue, HandleCopiesAllGoStaleOnCancel)
{
    EventQueue q;
    bool ran = false;
    EventHandle h = q.schedule(10, [&] { ran = true; });
    EventHandle copy = h;
    q.cancel(h);
    EXPECT_FALSE(copy.pending());
    q.cancel(copy);
    q.runAll();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, HandleGoesStaleAfterFire)
{
    EventQueue q;
    EventHandle h = q.schedule(10, [] {});
    // The slot is reused after the event fires; the old handle must
    // not cancel the newcomer.
    q.runAll();
    bool ran = false;
    EventHandle fresh = q.schedule(20, [&] { ran = true; });
    q.cancel(h);
    EXPECT_TRUE(fresh.pending());
    q.runAll();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, CancellationOrderPreservesFifoOfSurvivors)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 64; ++i)
        handles.push_back(
            q.schedule(5, [&order, i] { order.push_back(i); }));
    // Cancel the even ones in scattered order.
    for (int i = 62; i >= 0; i -= 2)
        q.cancel(handles[static_cast<std::size_t>(i)]);
    q.runAll();
    ASSERT_EQ(order.size(), 32u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], static_cast<int>(2 * i + 1));
}

TEST(EventQueue, CompactionBoundsHeapUnderCancelChurn)
{
    // Arm-and-cancel churn (the TCP RTO pattern) must not accumulate
    // dead entries until their distant due times: compaction keeps the
    // heap within a small constant of the live count.
    EventQueue q;
    bool sentinel_ran = false;
    q.schedule(2'000'000, [&] { sentinel_ran = true; });
    std::size_t peak = 0;
    for (int i = 0; i < 10000; ++i) {
        EventHandle h = q.scheduleIn(1'000'000, [] {});
        q.cancel(h);
        peak = std::max(peak, q.heapSize());
    }
    EXPECT_LT(peak, 128u);
    EXPECT_EQ(q.pending(), 1u);
    q.runAll();
    EXPECT_TRUE(sentinel_ran);
    EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueue, CompactionPreservesFifoOrder)
{
    // Trigger compaction mid-stream and verify the survivors still
    // fire in schedule order (the (when, seq) key must survive the
    // heap rebuild, or determinism breaks).
    EventQueue q;
    std::vector<int> order;
    std::vector<EventHandle> doomed;
    for (int i = 0; i < 200; ++i) {
        q.schedule(7, [&order, i] { order.push_back(i); });
        doomed.push_back(q.schedule(9, [] {}));
    }
    for (EventHandle &h : doomed)
        q.cancel(h);
    q.runAll();
    ASSERT_EQ(order.size(), 200u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelFromWithinHandlerIsSafe)
{
    EventQueue q;
    bool victim_ran = false;
    EventHandle victim;
    q.schedule(10, [&] { q.cancel(victim); });
    victim = q.schedule(20, [&] { victim_ran = true; });
    q.schedule(30, [] {});
    q.runAll();
    EXPECT_FALSE(victim_ran);
    EXPECT_EQ(q.now(), 30u);
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, LargeCaptureHandlersStillWork)
{
    // Captures beyond SmallFn's inline buffer take the heap fallback;
    // behaviour must be identical.
    EventQueue q;
    std::array<std::uint64_t, 16> big{};
    big[15] = 42;
    std::uint64_t seen = 0;
    q.schedule(5, [big, &seen] { seen = big[15]; });
    q.runAll();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, ReservedSeqFiresWhereItWasReserved)
{
    // Two runs of the same script: in one the middle event is
    // scheduled at once, in the other only its seq is reserved at that
    // point and the event is scheduled later, from inside another
    // handler. Same-tick order must be the same.
    auto run = [](bool deferred) {
        EventQueue q;
        std::vector<int> order;
        q.schedule(100, [&] { order.push_back(1); });
        if (deferred) {
            std::uint64_t seq = q.reserveSeq();
            q.schedule(40, [&q, &order, seq] {
                q.schedule(100, seq, [&] { order.push_back(2); });
            });
        } else {
            q.schedule(100, [&] { order.push_back(2); });
            q.schedule(40, [] {});
        }
        q.schedule(100, [&] { order.push_back(3); });
        q.schedule(60, [&q, &order] {
            q.schedule(100, [&] { order.push_back(4); });
        });
        q.runAll();
        EXPECT_EQ(q.executed(), 6u);
        return order;
    };
    EXPECT_EQ(run(false), (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(run(true), (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, HandlerRunsInPlaceWhileTheSlabGrows)
{
    // The handler runs in its own slab record and schedules more than
    // two chunks' worth of events before reading its captures: growing
    // the slab must not move (or free) the record it is running from.
    EventQueue q;
    std::array<std::uint64_t, 5> payload{11, 22, 33, 44, 55};
    std::uint64_t sum_after = 0;
    int scheduled = 0;
    int ran = 0;
    q.schedule(1, [&q, &sum_after, &scheduled, &ran, payload] {
        for (int i = 0; i < 600; ++i) {
            q.scheduleIn(1 + i % 7, [&ran] { ++ran; });
            ++scheduled;
        }
        sum_after = 0;
        for (std::uint64_t v : payload)
            sum_after += v;
    });
    q.runAll();
    EXPECT_EQ(sum_after, 165u);
    EXPECT_EQ(scheduled, 600);
    EXPECT_EQ(ran, 600);
    EXPECT_EQ(q.executed(), 601u);
}

TEST(EventQueue, SelfCancelInsideHandlerIsANoOp)
{
    // An event that cancels its own handle while running must neither
    // count as cancelled nor free its slot twice: a double free would
    // hand the slot to two later events, and one would overwrite the
    // other.
    EventQueue q;
    EventHandle self;
    bool pending_inside = true;
    self = q.schedule(10, [&] {
        pending_inside = self.pending();
        q.cancel(self);
    });
    bool neighbour_ran = false;
    q.schedule(10, [&] { neighbour_ran = true; });
    q.runAll();
    EXPECT_FALSE(pending_inside);
    EXPECT_TRUE(neighbour_ran);
    EXPECT_EQ(q.executed(), 2u);
    EXPECT_EQ(q.pending(), 0u);

    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        q.schedule(20, [&order, i] { order.push_back(i); });
    EXPECT_EQ(q.pending(), 4u);
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, SlotIsFreedOnlyAfterTheHandlerReturns)
{
    // While a handler runs, what it schedules lands in other slots: its
    // captures stay alive to the end of the call, and are released as
    // soon as it returns.
    EventQueue q;
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    bool alive_after_scheduling = false;
    int child_ran = 0;
    q.schedule(1, [&q, &alive_after_scheduling, &child_ran, token] {
        for (int i = 0; i < 3; ++i)
            q.scheduleIn(0, [&child_ran] { ++child_ran; });
        alive_after_scheduling = *token == 7;
    });
    token.reset();
    EXPECT_FALSE(watch.expired()); // held by the pending handler
    ASSERT_TRUE(q.runOne());
    EXPECT_TRUE(alive_after_scheduling);
    EXPECT_TRUE(watch.expired()); // released right after the call
    EXPECT_EQ(q.pending(), 3u);
    q.runAll();
    EXPECT_EQ(child_ran, 3);
}

TEST(EventQueue, SaveRestoreAcrossChunks)
{
    // A snapshot of a queue spanning several slab chunks, with holes
    // from cancellations, replays exactly; restoring after the slab
    // has grown further drops the extra slots and revives the
    // snapshot's handles.
    EventQueue q;
    std::vector<int> order;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 700; ++i) {
        handles.push_back(q.schedule(1 + (i * 37) % 101,
                                     [&order, i] { order.push_back(i); }));
    }
    for (int i = 0; i < 700; i += 3)
        q.cancel(handles[static_cast<std::size_t>(i)]);
    EventHandle kept = handles[1];
    EventQueue::Saved snap = q.save();

    q.runAll();
    std::vector<int> first = order;
    std::uint64_t executed_first = q.executed();
    ASSERT_EQ(first.size(), 700u - 234u);
    EXPECT_FALSE(kept.pending());

    q.restore(snap);
    EXPECT_TRUE(kept.pending());
    EXPECT_EQ(q.pending(), 700u - 234u);
    for (int i = 0; i < 1000; ++i) // grow past the snapshot's slab
        q.schedule(500, [] {});
    q.restore(snap);
    EXPECT_EQ(q.pending(), 700u - 234u);
    order.clear();
    q.runAll();
    EXPECT_EQ(order, first);
    EXPECT_EQ(q.executed(), executed_first);
    EXPECT_EQ(q.now(), 101u);
}

TEST(EventQueue, ReservedSeqLandsInsideANonEmptyNearBucket)
{
    // Reserved seqs scheduled into a near bucket that already holds
    // later seqs go to the front and into the middle of its list.
    EventQueue q;
    std::vector<int> order;
    std::uint64_t first = q.reserveSeq();
    q.schedule(7, [&] { order.push_back(2); });
    std::uint64_t middle = q.reserveSeq();
    q.schedule(7, [&] { order.push_back(4); });
    q.schedule(7, middle, [&] { order.push_back(3); });
    q.schedule(7, first, [&] { order.push_back(1); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, CancelledNearHeadIsSkippedAtTheLimit)
{
    // A cancelled near event stays linked until it reaches the front
    // of the wheel; it counts in heapSize() until then, never fires,
    // and does not let runAll() run past its limit.
    EventQueue q;
    bool late_ran = false;
    EventHandle head = q.schedule(5, [] {});
    q.schedule(5 + EventQueue::wheelSize, [&] { late_ran = true; });
    q.cancel(head);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.heapSize(), 2u);
    q.runAll(5 + EventQueue::wheelSize - 1);
    EXPECT_FALSE(late_ran);
    EXPECT_EQ(q.heapSize(), 1u); // the cancelled record was freed
    q.runAll();
    EXPECT_TRUE(late_ran);
    EXPECT_EQ(q.heapSize(), 0u);
}

namespace {

/**
 * Drives an EventQueue with a random mix of schedules (delays 0, 1,
 * W-1, W, W+1, small, up to W and many W ahead, W the wheel width),
 * reserved seqs scheduled late, cancels (the next event among them)
 * and runUntil/runAll/runOne calls with limits anywhere in the next
 * three wheel widths. A reference map ordered by (when, seq) says
 * which event must fire next; handlers schedule, cancel and cancel
 * themselves too. The model is copyable, so a run can be saved with
 * the queue and replayed.
 */
class Differential
{
  public:
    explicit Differential(std::uint64_t seed) { m_.rng.seed(seed); }

    /** One step: a few actions, then one run call. */
    void
    step()
    {
        for (int n = static_cast<int>(m_.rng() % 6); n > 0; --n)
            act();
        Tick limit = q_.now() + m_.rng() % (3 * W);
        switch (m_.rng() % 4) {
        case 0:
            q_.runUntil(limit);
            check(q_.now() == limit, "runUntil left the clock off the limit");
            break;
        case 1:
            q_.runAll(limit);
            check(q_.now() <= limit, "runAll moved past the limit");
            break;
        case 2:
            q_.runOne();
            limit = 0; // what is due next may be due now
            break;
        default:
            limit = q_.now();
            q_.runUntil(limit); // runs what is due now
            break;
        }
        check(limit == 0 || m_.ref.empty() ||
                  m_.ref.begin()->first.first > limit,
              "an event due by the limit did not run");
        check(q_.pending() == m_.ref.size(), "pending() differs");
        check(q_.heapSize() >= q_.pending(), "heapSize() below pending()");
    }

    /** Run to the end; the queue must end empty. */
    void
    drain()
    {
        q_.runAll();
        check(m_.ref.empty(), "events left after runAll()");
        check(q_.pending() == 0 && q_.heapSize() == 0, "queue not empty");
    }

    /** Save, run @p steps, rewind, run them again: same events. */
    void
    replay(int steps)
    {
        EventQueue::Saved saved = q_.save();
        Model model = m_;
        auto run = [&] {
            for (int i = 0; i < steps && !broken_; ++i)
                step();
            auto from = static_cast<std::ptrdiff_t>(model.log.size());
            return std::vector<int>(m_.log.begin() + from, m_.log.end());
        };
        std::vector<int> first = run();
        Tick end = q_.now();
        q_.restore(saved);
        m_ = model;
        std::vector<int> second = run();
        check(first == second, "replay after restore differs");
        check(q_.now() == end, "replay ends at another time");
    }

    bool broken() const { return broken_; }
    std::size_t fired() const { return m_.log.size(); }

  private:
    static constexpr Tick W = EventQueue::wheelSize;
    using Key = std::pair<Tick, std::uint64_t>; ///< (when, seq)

    struct Model
    {
        std::mt19937_64 rng;
        std::uint64_t seq = 0; ///< mirrors the queue's sequence counter
        std::map<Key, int> ref; ///< pending events by (when, seq)
        std::vector<EventHandle> handles; ///< by event id
        std::vector<Key> keys;            ///< by event id
        std::vector<std::pair<std::uint64_t, Tick>> reserved; ///< seq, due
        std::vector<int> log; ///< event ids in firing order
    };

    void
    check(bool ok, const char *what)
    {
        if (!ok && !broken_) {
            ADD_FAILURE() << what << " (now " << q_.now() << ", fired "
                          << m_.log.size() << ")";
            broken_ = true;
        }
    }

    Tick
    delay()
    {
        switch (m_.rng() % 9) {
        case 0: return 0;
        case 1: return 1;
        case 2: return W - 1;
        case 3: return W;
        case 4: return W + 1;
        case 5: return m_.rng() % W;
        case 6:
        case 7: return m_.rng() % 8; // crowd a few buckets
        default: return W * (2 + m_.rng() % 40) + m_.rng() % W;
        }
    }

    void
    add(Tick when, std::uint64_t seq, EventHandle h)
    {
        int id = static_cast<int>(m_.handles.size());
        m_.handles.push_back(h);
        m_.keys.push_back({when, seq});
        m_.ref.emplace(Key{when, seq}, id);
    }

    void
    cancel(int id)
    {
        auto it = m_.ref.find(m_.keys[static_cast<std::size_t>(id)]);
        if (it != m_.ref.end() && it->second == id)
            m_.ref.erase(it);
        q_.cancel(m_.handles[static_cast<std::size_t>(id)]);
    }

    void
    act()
    {
        int id = static_cast<int>(m_.handles.size());
        switch (m_.rng() % 7) {
        case 0:
        case 1: {
            Tick when = q_.now() + delay();
            add(when, m_.seq++, q_.schedule(when, [this, id] { fired(id); }));
            break;
        }
        case 2: {
            Tick d = delay();
            add(q_.now() + d, m_.seq++,
                q_.scheduleIn(d, [this, id] { fired(id); }));
            break;
        }
        case 3: { // reserve now, schedule later (DeadlineFifo, TCP RTO)
            std::uint64_t seq = q_.reserveSeq();
            check(seq == m_.seq++, "reserveSeq() out of step");
            m_.reserved.push_back({seq, q_.now() + m_.rng() % 8});
            break;
        }
        case 4: {
            if (m_.reserved.empty())
                break;
            std::size_t i = m_.rng() % m_.reserved.size();
            auto [seq, due] = m_.reserved[i];
            m_.reserved.erase(m_.reserved.begin() +
                              static_cast<std::ptrdiff_t>(i));
            Tick when = std::max(due, q_.now());
            add(when, seq, q_.schedule(when, seq, [this, id] { fired(id); }));
            break;
        }
        case 5: // any event, maybe long gone
            if (id > 0)
                cancel(static_cast<int>(m_.rng() %
                                        static_cast<std::uint64_t>(id)));
            break;
        default: // the next event to fire, in whichever tier
            if (!m_.ref.empty())
                cancel(m_.ref.begin()->second);
            break;
        }
    }

    void
    fired(int id)
    {
        if (broken_)
            return;
        check(!m_.ref.empty() && m_.ref.begin()->second == id,
              "fired out of (when, seq) order");
        if (broken_)
            return;
        check(m_.ref.begin()->first.first == q_.now(), "fired at wrong time");
        m_.ref.erase(m_.ref.begin());
        m_.log.push_back(id);
        if (m_.rng() % 4 == 0)
            act();
        if (m_.rng() % 8 == 0)
            q_.cancel(m_.handles[static_cast<std::size_t>(id)]); // no-op
    }

    EventQueue q_;
    Model m_;
    bool broken_ = false;
};

} // namespace

class EventQueueDifferential : public ::testing::TestWithParam<int>
{};

TEST_P(EventQueueDifferential, MatchesAReferenceOrderedByWhenAndSeq)
{
    Differential d(static_cast<std::uint64_t>(GetParam()));
    for (int round = 0; round < 20 && !d.broken(); ++round) {
        for (int i = 0; i < 100 && !d.broken(); ++i)
            d.step();
        d.replay(40);
    }
    d.drain();
    EXPECT_GT(d.fired(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SmallFn, CopyRunsIndependentlyOfItsOriginal)
{
    // A copy holds copies of the captures: each holder runs, and
    // releases its captures, on its own.
    auto token = std::make_shared<int>(0);
    SmallFn<void()> a([token] { ++*token; });
    SmallFn<void()> b(a);
    EXPECT_EQ(token.use_count(), 3);
    a.consume();
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_FALSE(a);
    ASSERT_TRUE(b);

    // Copy-assignment, and a capture too big for the inline buffer.
    std::array<std::uint64_t, 16> big{};
    big[15] = 7;
    SmallFn<void()> c([big, token] { *token += static_cast<int>(big[15]); });
    b = c;
    EXPECT_EQ(token.use_count(), 3); // b's old capture is gone
    c.consume();
    b.consume();
    EXPECT_EQ(*token, 15);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallFnDeath, CopyingANonCopyableCapturePanics)
{
    SmallFn<void()> fn([p = std::make_unique<int>(1)] { (void)p; });
    EXPECT_DEATH({ SmallFn<void()> copy(fn); }, "non-copyable");
}

TEST(SmallFn, CallsRepeatedlyWithArgumentsAndAResult)
{
    // A stateful callable keeps its state across calls, also through a
    // const holder, inline and on the heap fallback alike.
    const SmallFn<int(int, int)> sum(
        [total = 0](int a, int b) mutable { return total += a * b; });
    EXPECT_EQ(sum(2, 3), 6);
    EXPECT_EQ(sum(1, 4), 10);
    EXPECT_EQ(sum(0, 9), 10);
    ASSERT_TRUE(sum); // calling does not consume

    std::array<std::uint64_t, 16> big{};
    big[15] = 5;
    SmallFn<std::uint64_t(std::uint64_t)> scaled(
        [big](std::uint64_t x) { return x * big[15]; });
    EXPECT_EQ(scaled(3), 15u);
    EXPECT_EQ(scaled(4), 20u);
}

TEST(SmallFn, RvalueReferenceArgumentIsMoved)
{
    std::unique_ptr<int> kept;
    SmallFn<void(std::unique_ptr<int> &&)> take(
        [&kept](std::unique_ptr<int> &&p) { kept = std::move(p); });
    auto p = std::make_unique<int>(42);
    int *raw = p.get();
    take(std::move(p));
    EXPECT_EQ(p, nullptr);
    ASSERT_EQ(kept.get(), raw); // the same object, never copied
    EXPECT_EQ(*kept, 42);

    // A by-value parameter receives the argument by move as well.
    SmallFn<std::size_t(std::vector<int>)> sink(
        [](std::vector<int> v) { return v.size(); });
    std::vector<int> v(100, 1);
    EXPECT_EQ(sink(std::move(v)), 100u);
}

TEST(SmallFn, CopiedHookRunsIndependently)
{
    SmallFn<int()> a([n = 0]() mutable { return ++n; });
    EXPECT_EQ(a(), 1);
    SmallFn<int()> b(a); // copies the captured counter at 1
    EXPECT_EQ(a(), 2);
    EXPECT_EQ(a(), 3);
    EXPECT_EQ(b(), 2);
    SmallFn<int()> c;
    c = b;
    EXPECT_EQ(c(), 3);
    EXPECT_EQ(b(), 3);
    EXPECT_EQ(a(), 4);
}

TEST(SmallFn, EmptyHolderTestsFalse)
{
    SmallFn<bool(int)> empty;
    EXPECT_FALSE(empty);
    SmallFn<bool(int)> odd([](int x) { return x % 2 != 0; });
    ASSERT_TRUE(odd);
    EXPECT_TRUE(odd(3));
    SmallFn<bool(int)> moved(std::move(odd));
    EXPECT_FALSE(odd); // moved from
    ASSERT_TRUE(moved);
    EXPECT_FALSE(moved(4));
    SmallFn<bool(int)> copy(empty);
    EXPECT_FALSE(copy); // copying an empty holder is fine
    moved.reset();
    EXPECT_FALSE(moved);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.runAll();
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
}

TEST(EventQueueDeath, SchedulingUnderAnUnreservedSeqPanics)
{
    EventQueue q;
    std::uint64_t seq = q.reserveSeq();
    EXPECT_DEATH(q.schedule(10, seq + 1, [] {}), "unreserved");
}

TEST(EventQueueDeath, SchedulingAnEmptyHandlerPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.scheduleIn(1, SmallFn<void()>()), "empty handler");
}

/** Property sweep: N events at random times always run sorted. */
class EventQueueOrderSweep : public ::testing::TestWithParam<int>
{};

TEST_P(EventQueueOrderSweep, AlwaysSorted)
{
    EventQueue q;
    std::mt19937_64 rng(GetParam());
    std::vector<Tick> fired;
    for (int i = 0; i < 500; ++i) {
        Tick t = rng() % 10000;
        q.schedule(t, [&fired, &q] { fired.push_back(q.now()); });
    }
    q.runAll();
    ASSERT_EQ(fired.size(), 500u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOrderSweep,
                         ::testing::Values(1, 2, 3, 17, 99));
