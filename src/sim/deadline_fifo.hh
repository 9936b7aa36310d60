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
#include "sim/ring_buffer.hh"
#include "sim/types.hh"

namespace performa::sim {

template <typename T, typename Owner> class DeadlineFifo
{
  public:
    struct Entry
    {
        Tick when;
        std::uint64_t seq; ///< reserved event seq the deadline fires under
        T value;
    };

    DeadlineFifo(EventQueue &q, Owner &owner, Tick timeout)
        : q_(q), owner_(owner), timeout_(timeout)
    {}
    DeadlineFifo(const DeadlineFifo &) = delete;
    DeadlineFifo &operator=(const DeadlineFifo &) = delete;

    /** Add @p value, due one timeout from now. */
    void
    push(T value)
    {
        entries_.push_back(
            Entry{q_.now() + timeout_, q_.reserveSeq(), std::move(value)});
        if (entries_.size() == 1)
            arm();
    }

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    /** The @p i-th entry from the head (oldest first). */
    T &operator[](std::size_t i) { return entries_[i].value; }

    /** Snapshot state: the entries (the armed head event belongs to
     *  the event queue's snapshot). */
    using Saved = RingBuffer<Entry>;

    Saved save() const { return entries_; }

    /** Refill in place: the ring keeps its warmed-up capacity, so a
     *  restore does not allocate. */
    void restore(const Saved &s) { entries_ = s; }

  private:
    void
    arm()
    {
        const Entry &head = entries_.front();
        q_.schedule(head.when, head.seq, [this] { fire(); });
    }

    void
    fire()
    {
        T head = std::move(entries_.front().value);
        bool live = owner_.deadlineLive(head);
        entries_.pop_front();
        while (!entries_.empty() &&
               !owner_.deadlineLive(entries_.front().value))
            entries_.pop_front();
        if (!entries_.empty())
            arm();
        if (live)
            owner_.deadlineExpired(head);
    }

    EventQueue &q_;
    Owner &owner_;
    Tick timeout_;
    RingBuffer<Entry> entries_;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_DEADLINE_FIFO_HH
