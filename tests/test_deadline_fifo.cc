/**
 * @file
 * Unit tests for sim::DeadlineFifo: an expiry keeps the same-tick
 * place of a per-entry event, exactly one event is armed while the
 * FIFO is non-empty and it is the head's, dead entries are dropped
 * without events, and a restored FIFO replays its expiries. That a
 * restore allocates nothing is checked in test_zero_alloc.cc, which
 * counts allocations.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sim/deadline_fifo.hh"
#include "sim/event_queue.hh"

using namespace performa::sim;

namespace {

constexpr Tick kTimeout = 100;

/** Entries are ids that die when marked; expiries and probes share
 *  one log (probes log negative numbers). */
struct Owner
{
    std::vector<bool> dead;
    std::vector<int> log;
    std::vector<Tick> expiredAt; ///< by id; 0 = never expired

    EventQueue *q = nullptr;

    bool deadlineLive(const int &id) const { return !dead[id]; }

    void
    deadlineExpired(const int &id)
    {
        log.push_back(id);
        expiredAt[id] = q->now();
    }
};

struct World
{
    EventQueue q;
    Owner owner;
    DeadlineFifo<int, Owner> fifo{q, owner, kTimeout};

    World() { owner.q = &q; }

    /** Push a fresh id, live until marked dead. */
    int
    push()
    {
        int id = static_cast<int>(owner.dead.size());
        owner.dead.push_back(false);
        owner.expiredAt.push_back(0);
        fifo.push(id);
        return id;
    }

    /** Log @p tag when an event scheduled now at @p when runs. */
    void
    probe(Tick when, int tag)
    {
        q.schedule(when, [this, tag] { owner.log.push_back(tag); });
    }
};

} // namespace

TEST(DeadlineFifo, ExpiryKeepsTheSameTickPlaceOfAPerEntryEvent)
{
    // With one event per entry, each expiry would run between the
    // events scheduled before and after its push for the same tick.
    // B's event is armed only when A's fires, and C's when B's does,
    // so each must fire under the seq it reserved at push.
    World w;
    int a = w.push();
    w.probe(kTimeout, -1);
    int b = w.push();
    w.probe(kTimeout, -2);
    w.q.schedule(30, [&w] {
        w.probe(130, -3);
        w.push(); // C, due at 130
        w.probe(130, -4);
    });
    w.q.runAll();
    std::vector<int> want = {a, -1, b, -2, -3, 2, -4};
    EXPECT_EQ(w.owner.log, want);
}

TEST(DeadlineFifo, ArmedExactlyWhenNonEmptyAndForTheHead)
{
    // Random pushes and deaths: at every step the queue holds exactly
    // one event while the FIFO has entries and none once it is empty,
    // and every entry still live at its deadline expires at exactly
    // push time + timeout, in push order.
    World w;
    std::mt19937_64 rng(11);
    std::vector<Tick> pushedAt, killedAt;
    Tick t = 0;
    for (int step = 0; step < 5000; ++step) {
        t += rng() % 9;
        w.q.runUntil(t);
        ASSERT_EQ(w.q.pending(), w.fifo.empty() ? 0u : 1u) << "at " << t;
        ASSERT_EQ(w.q.heapSize(), w.q.pending()) << "at " << t;
        if (rng() % 3 != 0) {
            w.push();
            pushedAt.push_back(t);
            killedAt.push_back(maxTick);
        }
        if (!pushedAt.empty() && rng() % 2 == 0) {
            int id = static_cast<int>(rng() % pushedAt.size());
            if (!w.owner.dead[id]) {
                w.owner.dead[id] = true;
                killedAt[id] = t;
            }
        }
        ASSERT_EQ(w.q.pending(), w.fifo.empty() ? 0u : 1u) << "at " << t;
    }
    w.q.runAll();
    EXPECT_TRUE(w.fifo.empty());
    EXPECT_EQ(w.q.pending(), 0u);

    std::vector<int> want;
    for (std::size_t id = 0; id < pushedAt.size(); ++id) {
        Tick due = pushedAt[id] + kTimeout;
        bool expires = killedAt[id] >= due; // a kill at `due` is late
        EXPECT_EQ(w.owner.expiredAt[id], expires ? due : 0) << "id " << id;
        if (expires)
            want.push_back(static_cast<int>(id));
    }
    EXPECT_EQ(w.owner.log, want);
    EXPECT_GT(want.size(), 100u);
    EXPECT_LT(want.size(), pushedAt.size());
}

TEST(DeadlineFifo, DeadEntriesAreSkippedWithoutEvents)
{
    // 1000 entries one tick apart; all but every 100th die at once.
    // Each expiry passes over the 99 dead entries behind it, so only
    // the 10 live deadlines ever run an event.
    World w;
    for (Tick t = 0; t < 1000; ++t) {
        w.q.runUntil(t);
        int id = w.push();
        w.owner.dead[id] = id % 100 != 0;
    }
    w.q.runAll();
    std::vector<int> want;
    for (int id = 0; id < 1000; id += 100) {
        want.push_back(id);
        EXPECT_EQ(w.owner.expiredAt[id], static_cast<Tick>(id) + kTimeout);
    }
    EXPECT_EQ(w.owner.log, want);
    EXPECT_EQ(w.q.executed(), 10u);
}

TEST(DeadlineFifo, RestoreReplaysTheExpiries)
{
    // Save mid-run with entries waiting, run on, restore the queue and
    // the FIFO together: the second run repeats the first exactly.
    World w;
    for (Tick t = 0; t < 300; t += 3) {
        w.q.runUntil(t);
        int id = w.push();
        w.owner.dead[id] = id % 4 == 1;
    }
    auto q_saved = w.q.save();
    auto fifo_saved = w.fifo.save();
    std::size_t waiting = w.fifo.size();
    ASSERT_GT(waiting, 30u);
    w.owner.log.clear();

    w.q.runAll();
    std::vector<int> first = w.owner.log;
    EXPECT_TRUE(w.fifo.empty());

    w.owner.log.clear();
    w.q.restore(q_saved);
    w.fifo.restore(fifo_saved);
    EXPECT_EQ(w.fifo.size(), waiting);
    w.q.runAll();
    EXPECT_EQ(w.owner.log, first);
    EXPECT_GT(first.size(), 20u);
}
