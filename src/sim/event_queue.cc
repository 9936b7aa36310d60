#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace performa::sim {

std::uint32_t
EventQueue::carveSlot()
{
    // Add a chunk when the carved slots are all in use. Existing
    // records stay put, so a running handler (which may be scheduling
    // this very event) is never relocated.
    if ((slots_ >> chunkBits) == chunks_.size())
        chunks_.push_back(std::make_unique<Record[]>(chunkSize));
    return slots_++;
}

void
EventQueue::cancel(EventHandle &h)
{
    if (h.queue_ == this && record(h.slot_).gen == h.gen_) {
        Record &r = record(h.slot_);
        // Bumping the generation invalidates the heap entry and every
        // outstanding copy of the handle in one step; the slot is
        // immediately reusable.
        ++r.gen;
        r.fn.reset(); // release captured state eagerly
        freeSlots_.push_back(h.slot_);
        --live_;
        maybeCompact();
    }
    h = EventHandle();
}

void
EventQueue::pruneStaleHead()
{
    while (!heap_.empty() && !live(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
    }
}

EventQueue::HeapEntry
EventQueue::popHead()
{
    HeapEntry e = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    return e;
}

void
EventQueue::fire(const HeapEntry &e)
{
    Record &r = record(e.slot);
    now_ = e.when;
    ++r.gen; // handles to this event are stale from here on
    --live_;
    ++executed_;
    // Invoke in place. The slot is not on the free list yet, so what
    // the handler schedules lands in other records, and new chunks
    // leave this one where it is.
    firing_ = true;
    r.fn.consume();
    firing_ = false;
    freeSlots_.push_back(e.slot);
}

void
EventQueue::maybeCompact()
{
    // Lazy deletion keeps cancel O(1), but a cancel-heavy run (TCP
    // timers, request expiries) would otherwise carry dead entries
    // until their original due time. Rebuild once they outnumber the
    // live ones; the (when, seq) key survives the rebuild, so FIFO
    // tie-break order — and thus determinism — is unaffected.
    std::size_t stale = heap_.size() - live_;
    if (heap_.size() < 64 || stale * 2 <= heap_.size())
        return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const HeapEntry &e) {
                                   return !live(e);
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
}

bool
EventQueue::runOne()
{
    pruneStaleHead();
    if (heap_.empty())
        return false;
    fire(popHead());
    return true;
}

void
EventQueue::runUntil(Tick limit)
{
    for (;;) {
        pruneStaleHead();
        if (heap_.empty() || heap_.front().when > limit)
            break;
        fire(popHead());
    }
    if (now_ < limit)
        now_ = limit;
}

EventQueue::Saved
EventQueue::save() const
{
    if (firing_)
        PANIC("EventQueue::save() called from inside a handler");
    Saved s;
    s.now = now_;
    s.nextSeq = nextSeq_;
    s.executed = executed_;
    s.live = live_;
    s.records.reserve(slots_);
    for (std::uint32_t i = 0; i < slots_; ++i)
        s.records.push_back(record(i));
    s.freeSlots = freeSlots_;
    s.heap = heap_;
    return s;
}

void
EventQueue::restore(const Saved &s)
{
    if (firing_)
        PANIC("EventQueue::restore() called from inside a handler");
    now_ = s.now;
    nextSeq_ = s.nextSeq;
    executed_ = s.executed;
    live_ = s.live;
    // Rewind the slab slot for slot, keeping its chunks: a fork reuses
    // the memory the previous run carved. Slots carved after the
    // snapshot are emptied and their generations bumped, so handles
    // into them from the discarded run stay stale.
    std::uint32_t saved = static_cast<std::uint32_t>(s.records.size());
    while ((saved + chunkSize - 1) >> chunkBits > chunks_.size())
        chunks_.push_back(std::make_unique<Record[]>(chunkSize));
    for (std::uint32_t i = 0; i < saved; ++i)
        record(i) = s.records[i];
    for (std::uint32_t i = saved; i < slots_; ++i) {
        Record &r = record(i);
        r.fn.reset();
        ++r.gen;
    }
    slots_ = saved;
    freeSlots_ = s.freeSlots;
    heap_ = s.heap;
}

void
EventQueue::runAll(Tick limit)
{
    // Prune before the limit check: a cancelled head must not let an
    // event scheduled after @p limit execute (historical overshoot
    // bug — runOne() skips cancelled entries unconditionally).
    for (;;) {
        pruneStaleHead();
        if (heap_.empty() || heap_.front().when > limit)
            break;
        fire(popHead());
    }
}

} // namespace performa::sim
