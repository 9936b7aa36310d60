#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
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
        // Bumping the generation invalidates the event and every
        // outstanding copy of the handle in one step.
        ++r.gen;
        r.fn.reset(); // release captured state eagerly
        --live_;
        if (r.next == inHeap) {
            // The heap entry goes stale and the slot is reusable now.
            freeSlots_.push_back(h.slot_);
            --heapLive_;
            maybeCompact();
        }
        // A near event stays linked, its empty handler marking it
        // cancelled, until it reaches the front of the wheel:
        // nearHead() frees it then.
    }
    h = EventHandle();
}

void
EventQueue::insertSorted(Bucket &b, std::uint32_t slot)
{
    // A reserved seq scheduled late: it goes before every later seq.
    // The tail's seq is larger, so the walk stops before it.
    Record &r = record(slot);
    if (record(b.head).seq > r.seq) {
        r.next = b.head;
        b.head = slot;
        return;
    }
    std::uint32_t prev = b.head;
    while (record(record(prev).next).seq < r.seq)
        prev = record(prev).next;
    r.next = record(prev).next;
    record(prev).next = slot;
}

std::uint32_t
EventQueue::firstBucket() const
{
    // Every near event is due in [now, now + wheelSize), so bucket
    // order from now's bucket on, wrapping once, is time order.
    std::uint32_t start = static_cast<std::uint32_t>(now_) & wheelMask;
    std::uint32_t w = start >> 6;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start & 63));
    for (std::uint32_t i = 0; i <= bitmapWords; ++i) {
        if (bits)
            return (w << 6) |
                static_cast<std::uint32_t>(std::countr_zero(bits));
        w = (w + 1) & (bitmapWords - 1);
        bits = occupied_[w];
    }
    return nil;
}

std::uint32_t
EventQueue::unlinkHead(std::uint32_t i)
{
    Bucket &b = buckets_[i];
    std::uint32_t slot = b.head;
    b.head = record(slot).next;
    if (b.head == nil) {
        b.tail = nil;
        occupied_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }
    --wheelEntries_;
    return slot;
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

std::uint32_t
EventQueue::nearHead()
{
    std::uint32_t i = firstBucket();
    while (i != nil && !record(buckets_[i].head).fn) {
        freeSlots_.push_back(unlinkHead(i)); // a cancelled near event
        if (buckets_[i].head == nil)
            i = wheelEntries_ ? firstBucket() : nil;
    }
    return i;
}

bool
EventQueue::peek(Next &n)
{
    if (!heap_.empty() && !live(heap_.front()))
        pruneStaleHead();
    std::uint32_t i = wheelEntries_ ? nearHead() : nil;
    if (i == nil) {
        if (heap_.empty())
            return false;
        n = Next{heap_.front().when, nil};
        return true;
    }
    Tick when = now_ + ((i - static_cast<std::uint32_t>(now_)) & wheelMask);
    if (!heap_.empty()) {
        const HeapEntry &top = heap_.front();
        if (top.when < when ||
            (top.when == when && top.seq < record(buckets_[i].head).seq)) {
            n = Next{top.when, nil};
            return true;
        }
    }
    n = Next{when, i};
    return true;
}

void
EventQueue::take(const Next &n)
{
    if (n.bucket != nil) {
        fire(unlinkHead(n.bucket), n.when);
    } else {
        --heapLive_;
        fire(popHead().slot, n.when);
    }
}

void
EventQueue::fire(std::uint32_t slot, Tick when)
{
    Record &r = record(slot);
    now_ = when;
    ++r.gen; // handles to this event are stale from here on
    --live_;
    ++executed_;
    // Invoke in place. The slot is not on the free list yet, so what
    // the handler schedules lands in other records, and new chunks
    // leave this one where it is.
    firing_ = true;
    r.fn.consume();
    firing_ = false;
    freeSlots_.push_back(slot);
}

void
EventQueue::maybeCompact()
{
    // Lazy deletion keeps cancel O(1), but a cancel-heavy run (TCP
    // timers, request expiries) would otherwise carry dead entries
    // until their original due time. Rebuild once they outnumber the
    // live ones; the (when, seq) key survives the rebuild, so FIFO
    // tie-break order — and thus determinism — is unaffected.
    std::size_t stale = heap_.size() - heapLive_;
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
    Next n;
    if (!peek(n))
        return false;
    take(n);
    return true;
}

void
EventQueue::runUntil(Tick limit)
{
    runAll(limit);
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
    s.buckets = buckets_;
    s.occupied = occupied_;
    s.wheelEntries = wheelEntries_;
    s.heap = heap_;
    s.heapLive = heapLive_;
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
    buckets_ = s.buckets;
    occupied_ = s.occupied;
    wheelEntries_ = s.wheelEntries;
    heap_ = s.heap;
    heapLive_ = s.heapLive;
}

void
EventQueue::runAll(Tick limit)
{
    // peek() drops cancelled heads before the limit check: a
    // cancelled head must not let an event scheduled after @p limit
    // execute (historical overshoot bug — runOne() skips cancelled
    // entries unconditionally).
    Next n;
    while (peek(n) && n.when <= limit)
        take(n);
}

} // namespace performa::sim
