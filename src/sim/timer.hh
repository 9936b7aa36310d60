/**
 * @file
 * A one-shot timer: a slot for at most one pending event.
 *
 * A component that keeps "the" retry, timeout or deadline event of
 * something holds a Timer instead of a raw EventHandle. Arming a timer
 * whose event is still pending panics, so a second event can never be
 * scheduled over the first and leave it running unowned (and, if its
 * handler re-arms, a chain that nothing can cancel). To move a pending
 * deadline, cancel() and then arm() again.
 *
 * A Timer is a plain value: copying one copies the {slot, gen} handle,
 * and destroying one does nothing. Snapshots rely on that: a saved
 * copy of a component's state holds its timers, an event-queue restore
 * makes their handles pending again, and a cancelling destructor on
 * the saved copy would cancel the live event instead. Whoever owns the
 * timer cancels it explicitly when the owner goes away.
 */

#ifndef PERFORMA_SIM_TIMER_HH
#define PERFORMA_SIM_TIMER_HH

#include <cstdint>
#include <type_traits>
#include <utility>

#include "sim/event_queue.hh"

namespace performa::sim {

class Timer
{
  public:
    /** @return true while the armed event has neither fired nor been
     *  cancelled. */
    bool pending() const { return h_.pending(); }

    /** Schedule @p fn on @p q at @p when. The timer must be idle. */
    template <typename F>
    void
    arm(EventQueue &q, Tick when, F &&fn)
    {
        checkIdle();
        h_ = q.schedule(when, std::forward<F>(fn));
    }

    /** Schedule @p fn on @p q at @p when under reserved sequence
     *  number @p seq (see EventQueue::reserveSeq). The timer must be
     *  idle. */
    template <typename F>
    void
    arm(EventQueue &q, Tick when, std::uint64_t seq, F &&fn)
    {
        checkIdle();
        h_ = q.schedule(when, seq, std::forward<F>(fn));
    }

    /** Cancel the pending event, if any; the timer is idle after. */
    void
    cancel()
    {
        if (h_.queue_)
            h_.queue_->cancel(h_);
    }

  private:
    void
    checkIdle() const
    {
        if (h_.pending()) [[unlikely]]
            armedWhilePending();
    }

    /** Out of line, so the check inlines as one branch and a call. */
    [[noreturn]] static void armedWhilePending();

    EventHandle h_;
};

static_assert(std::is_trivially_copyable_v<Timer>,
              "snapshots copy timers as plain values");

} // namespace performa::sim

#endif // PERFORMA_SIM_TIMER_HH
