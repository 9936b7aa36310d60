/**
 * @file
 * Unit tests for sim::DeadlineFifo: an expiry keeps the same-tick
 * place of a per-entry event, exactly one event is armed while the
 * FIFO is non-empty and it is the head's, dead entries are dropped
 * without events, and a restored FIFO replays its expiries. Entries
 * are delta-coded, so a FIFO that drains and sits idle for more than
 * 2^32 ticks must start again from absolute values, and a timeout of
 * 2^32 ticks or more is rejected. That a restore allocates nothing is
 * checked in test_zero_alloc.cc, which counts allocations.
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

TEST(DeadlineFifo, RefillAfterAnIdleGapLongerThanADeltaKeepsDeadlines)
{
    // Drain the FIFO, let the clock pass 2^32 ticks with nothing
    // pending, then refill it: each live head still fires at push
    // time + timeout, in the same-tick place its push reserved.
    World w;
    int a = w.push();
    w.q.runAll();
    ASSERT_TRUE(w.fifo.empty());
    ASSERT_EQ(w.owner.expiredAt[a], kTimeout);

    const Tick t0 = (Tick{1} << 32) + 12345;
    w.q.runUntil(t0);
    w.owner.log.clear();
    int b = w.push();
    w.probe(t0 + kTimeout, -1);
    int c = w.push();
    w.owner.dead[c] = true;
    w.q.schedule(t0 + 7, [&w] {
        w.probe(w.q.now() + kTimeout, -2);
        w.push(); // D, due at t0 + 7 + timeout
        w.probe(w.q.now() + kTimeout, -3);
    });
    w.q.runAll();
    const int d = c + 1;
    std::vector<int> want = {b, -1, -2, d, -3};
    EXPECT_EQ(w.owner.log, want);
    EXPECT_EQ(w.owner.expiredAt[b], t0 + kTimeout);
    EXPECT_EQ(w.owner.expiredAt[c], 0u);
    EXPECT_EQ(w.owner.expiredAt[d], t0 + 7 + kTimeout);
}

TEST(DeadlineFifo, RestoreOfAFullFifoKeepsEveryDeadlineAndPlace)
{
    // Save while hundreds of entries wait, some dead, each pushed
    // between two probes of its own deadline tick. Run on, drain and
    // refill the FIFO, then restore the queue, the FIFO and the owner
    // together: every live entry expires at its deadline, between its
    // two probes, exactly as in the first run.
    World w;
    std::mt19937_64 rng(5);
    std::vector<Tick> pushedAt;
    Tick t = 0;
    while (pushedAt.size() < 3000) {
        t += rng() % 3 == 0 ? 1 : 0; // about three pushes per tick
        w.q.runUntil(t);
        int id = static_cast<int>(pushedAt.size());
        w.probe(t + kTimeout, -2 * id - 1);
        w.push();
        w.probe(t + kTimeout, -2 * id - 2);
        w.owner.dead[id] = rng() % 3 == 0;
        pushedAt.push_back(t);
    }
    auto q_saved = w.q.save();
    auto fifo_saved = w.fifo.save();
    Owner owner_saved = w.owner;
    const std::size_t waiting = w.fifo.size();
    ASSERT_GT(waiting, 200u);

    auto check = [&w, &pushedAt](const char *run) {
        for (std::size_t id = 0; id < pushedAt.size(); ++id) {
            Tick want = w.owner.dead[id] ? 0 : pushedAt[id] + kTimeout;
            EXPECT_EQ(w.owner.expiredAt[id], want) << run << " id " << id;
        }
        // A live entry expires right after the probe scheduled before
        // its push and right before the one scheduled after it.
        const std::vector<int> &log = w.owner.log;
        for (std::size_t k = 0; k < log.size(); ++k) {
            if (log[k] < 0)
                continue;
            ASSERT_TRUE(k > 0 && k + 1 < log.size()) << run;
            EXPECT_EQ(log[k - 1], -2 * log[k] - 1) << run;
            EXPECT_EQ(log[k + 1], -2 * log[k] - 2) << run;
        }
    };

    w.owner.log.clear();
    w.q.runAll();
    check("first run");
    const std::vector<int> first = w.owner.log;
    EXPECT_GT(first.size(), 2 * waiting);
    EXPECT_TRUE(w.fifo.empty());
    w.q.runUntil(w.q.now() + 1000);
    for (int i = 0; i < 50; ++i)
        w.push();

    w.q.restore(q_saved);
    w.fifo.restore(fifo_saved);
    w.owner = owner_saved;
    w.owner.log.clear();
    EXPECT_EQ(w.fifo.size(), waiting);
    w.q.runAll();
    EXPECT_EQ(w.owner.log, first);
    check("restored run");
}

TEST(DeadlineFifoDeath, TimeoutOfTwoToTheThirtyTwoTicksIsRejected)
{
    EventQueue q;
    Owner owner;
    DeadlineFifo<int, Owner> widest(q, owner, (Tick{1} << 32) - 1);
    EXPECT_TRUE(widest.empty());
    EXPECT_DEATH((DeadlineFifo<int, Owner>(q, owner, Tick{1} << 32)),
                 "32-bit deadline delta");
    EXPECT_DEATH((DeadlineFifo<int, Owner>(q, owner, maxTick)),
                 "32-bit deadline delta");
}
