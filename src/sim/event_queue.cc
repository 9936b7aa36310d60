#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace performa::sim {

bool
EventHandle::pending() const
{
    return queue_ && queue_->records_[slot_].gen == gen_;
}

EventHandle
EventQueue::schedule(Tick when, Handler fn)
{
    return schedule(when, nextSeq_++, std::move(fn));
}

EventHandle
EventQueue::schedule(Tick when, std::uint64_t seq, Handler fn)
{
    if (when < now_)
        PANIC("scheduling event in the past: ", when, " < ", now_);
    if (seq >= nextSeq_)
        PANIC("scheduling under an unreserved sequence number: ", seq);
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(records_.size());
        records_.emplace_back();
    }
    Record &r = records_[slot];
    r.fn = std::move(fn);
    heap_.push_back(HeapEntry{when, seq, slot, r.gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return EventHandle(this, slot, r.gen);
}

EventHandle
EventQueue::scheduleIn(Tick delay, Handler fn)
{
    return schedule(now_ + delay, std::move(fn));
}

void
EventQueue::cancel(EventHandle &h)
{
    if (h.queue_ == this && records_[h.slot_].gen == h.gen_) {
        Record &r = records_[h.slot_];
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
    Record &r = records_[e.slot];
    now_ = e.when;
    ++r.gen; // handles to this event are stale from here on
    Handler fn = std::move(r.fn);
    freeSlots_.push_back(e.slot);
    --live_;
    ++executed_;
    // Invoke only after retiring the slot: the handler may schedule
    // more events, growing the slab and the heap.
    fn();
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
    Saved s;
    s.now = now_;
    s.nextSeq = nextSeq_;
    s.executed = executed_;
    s.live = live_;
    s.records.reserve(records_.size());
    for (const Record &r : records_)
        s.records.push_back(Record{r.fn.clone(), r.gen});
    s.freeSlots = freeSlots_;
    s.heap = heap_;
    return s;
}

void
EventQueue::restore(const Saved &s)
{
    now_ = s.now;
    nextSeq_ = s.nextSeq;
    executed_ = s.executed;
    live_ = s.live;
    // Rebuild the slab slot for slot (the slab may have grown past the
    // snapshot during a previous fork's run; extra slots are dropped).
    records_.clear();
    records_.reserve(s.records.size());
    for (const Record &r : s.records)
        records_.push_back(Record{r.fn.clone(), r.gen});
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
