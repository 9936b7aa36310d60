/**
 * @file
 * DeadlineFifo: deadlines that share one timeout come due in the order
 * they were pushed, so they wait in a RingBuffer with exactly one
 * armed event, for the head, instead of a heap entry each.
 *
 * A push reserves the event seq a per-entry scheduleIn would have
 * taken there, and the head's event is scheduled under it: a deadline
 * that matters fires at the same (when, seq) as with one event per
 * entry, so same-tick order is unchanged. When the head's event fires,
 * the FIFO pops the head, drops the dead entries behind it without
 * events, arms the next head, and then calls the owner's expire hook
 * if the popped head was still live. A dead entry must stay dead.
 *
 * An entry stores its deadline and seq as 32-bit deltas from the
 * entry pushed before it; the FIFO keeps the head's and the tail's
 * absolute (when, seq), and advances the head's as it pops. An entry
 * is pushed while the one before it is still pending, so at most one
 * timeout after it: the constructor rejects a timeout of 2^32 ticks
 * or more, and a push PANICs if 2^32 or more seqs were reserved since
 * the previous push. A FIFO that drains starts again from absolute
 * values, so idle time between entries costs nothing, and the head's
 * own deltas are never read. An entry of answered flags (ClientFarm)
 * takes 12 bytes, so the ring and its snapshot copy stay small.
 *
 * The owner provides (privately, if it befriends the FIFO):
 *     bool deadlineLive(const T &entry) const;
 *     void deadlineExpired(const T &entry);
 */

#ifndef PERFORMA_SIM_DEADLINE_FIFO_HH
#define PERFORMA_SIM_DEADLINE_FIFO_HH

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/ring_buffer.hh"
#include "sim/types.hh"

namespace performa::sim {

template <typename T, typename Owner> class DeadlineFifo
{
  public:
    DeadlineFifo(EventQueue &q, Owner &owner, Tick timeout)
        : q_(q), owner_(owner), timeout_(timeout)
    {
        if (timeout > maxDelta)
            PANIC("DeadlineFifo: timeout ", timeout,
                  " does not fit a 32-bit deadline delta");
    }
    DeadlineFifo(const DeadlineFifo &) = delete;
    DeadlineFifo &operator=(const DeadlineFifo &) = delete;

    /** Add @p value, due one timeout from now. */
    void
    push(T value)
    {
        Tick when = q_.now() + timeout_;
        std::uint64_t seq = q_.reserveSeq();
        State &s = state_;
        if (s.entries.empty()) {
            s.headWhen = when;
            s.headSeq = seq;
            s.entries.push_back(Entry{0, 0, std::move(value)});
        } else {
            if (seq - s.tailSeq > maxDelta)
                PANIC("DeadlineFifo: ", seq - s.tailSeq,
                      " seqs reserved within one timeout");
            s.entries.push_back(
                Entry{static_cast<std::uint32_t>(when - s.tailWhen),
                      static_cast<std::uint32_t>(seq - s.tailSeq),
                      std::move(value)});
        }
        s.tailWhen = when;
        s.tailSeq = seq;
        if (s.entries.size() == 1)
            arm();
    }

    bool empty() const { return state_.entries.empty(); }
    std::size_t size() const { return state_.entries.size(); }
    /** The @p i-th entry from the head (oldest first). */
    T &operator[](std::size_t i) { return state_.entries[i].value; }

  private:
    static constexpr Tick maxDelta = 0xffffffffu;

    struct Entry
    {
        std::uint32_t dWhen; ///< deadline - previous entry's deadline
        std::uint32_t dSeq;  ///< seq - previous entry's seq
        T value;
    };

    struct State
    {
        RingBuffer<Entry> entries;
        Tick headWhen = 0; ///< the head's deadline
        std::uint64_t headSeq = 0; ///< the seq the head fires under
        Tick tailWhen = 0; ///< the newest entry's deadline
        std::uint64_t tailSeq = 0;
    };

  public:
    /** Snapshot state: the entries and the head's and tail's absolute
     *  (when, seq) (the armed head event belongs to the event queue's
     *  snapshot). */
    using Saved = State;

    Saved save() const { return state_; }

    /** Refill in place: the ring keeps its warmed-up capacity, so a
     *  restore does not allocate. */
    void restore(const Saved &s) { state_ = s; }

  private:
    void
    arm()
    {
        q_.schedule(state_.headWhen, state_.headSeq, [this] { fire(); });
    }

    /** Drop the head; the next entry's deltas make it the head. */
    void
    popFront()
    {
        State &s = state_;
        s.entries.pop_front();
        if (!s.entries.empty()) {
            s.headWhen += s.entries.front().dWhen;
            s.headSeq += s.entries.front().dSeq;
        }
    }

    void
    fire()
    {
        RingBuffer<Entry> &entries = state_.entries;
        T head = std::move(entries.front().value);
        bool live = owner_.deadlineLive(head);
        popFront();
        while (!entries.empty() && !owner_.deadlineLive(entries.front().value))
            popFront();
        if (!entries.empty())
            arm();
        if (live)
            owner_.deadlineExpired(head);
    }

    EventQueue &q_;
    Owner &owner_;
    Tick timeout_;
    State state_;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_DEADLINE_FIFO_HH
