/**
 * @file
 * The discrete-event engine at the heart of the simulated cluster.
 *
 * Every other subsystem (network, node OS, protocol stacks, servers,
 * clients, fault injector) expresses its behaviour as events scheduled
 * on a single EventQueue. Events at the same tick execute in schedule
 * order, which makes runs fully deterministic for a given seed.
 *
 * Hot-path design: event state lives in a slab of reusable records
 * addressed by {slot, generation} handles. The slab grows in
 * fixed-size chunks, so a record never moves: schedule() builds the
 * handler directly in its record and fire() invokes it there, with no
 * intermediate holder and no relocation. Scheduling a handler whose
 * captures fit SmallFn's inline buffer performs no allocation once the
 * slab has warmed up.
 *
 * Pending events sit in one of two tiers, both ordered by (when, seq):
 *  - the near tier, a wheel of wheelSize one-tick buckets, holds every
 *    event due in [now, now + wheelSize). A bucket is a list threaded
 *    through the records' next links, kept in seq order (an append,
 *    unless a reserved seq lands behind later ones), and a bitmap of
 *    non-empty buckets finds the next due one. Insert and remove are
 *    O(1), which is what nearly every event in a run needs: most are
 *    due well under a millisecond ahead.
 *  - the far tier, a binary heap of plain 24-byte {when, seq, slot,
 *    gen} entries, holds the later ones.
 * The next event is whichever tier's head is first in (when, seq), so
 * the order is the single total order of one heap.
 *
 * Cancellation is a generation bump — O(1), allocation-free — and
 * deletion is lazy in both tiers. A cancelled wheel record (its
 * handler gone) stays linked until it reaches the front of the wheel,
 * at the latest when its bucket comes due, and its slot is freed
 * then. A cancelled heap entry is dropped when it reaches the
 * top of the heap, and when cancelled entries ever outnumber live ones
 * the heap is compacted in one pass, so it stays bounded at < 2x the
 * number of live far events even under cancel-heavy workloads.
 */

#ifndef PERFORMA_SIM_EVENT_QUEUE_HH
#define PERFORMA_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::sim {

class EventQueue;

/**
 * Handle to a scheduled event, usable to cancel it before it fires.
 *
 * A handle is a trivially-copyable {queue, slot, generation} triple
 * into the queue's record slab; it owns nothing. The generation check
 * makes stale handles safe: once the event fires or is cancelled the
 * record's generation is bumped, so every outstanding copy of the
 * handle reports !pending() and cancels as a no-op, even after the
 * slot has been reused for a newer event (no ABA). Handles must not
 * outlive their EventQueue.
 *
 * Default-constructed handles refer to no event and are safe to cancel.
 * A component that keeps "the" pending retry or deadline of something
 * holds a sim::Timer (sim/timer.hh), which refuses to be re-armed
 * while its event is pending.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** @return true if the handle refers to an event not yet fired. */
    bool pending() const;

  private:
    friend class EventQueue;
    friend class Timer;

    EventHandle(EventQueue *q, std::uint32_t slot, std::uint32_t gen)
        : queue_(q), slot_(slot), gen_(gen)
    {}

    EventQueue *queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * A deterministic priority queue of timed callbacks.
 *
 * Two events scheduled for the same tick fire in the order they were
 * scheduled (FIFO tie-break on a sequence number); an event scheduled
 * under a reserved number takes its place at reservation time.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when. @p fn is any
     * void() callable, or a SmallFn<void()> rvalue; it is built in place in
     * the event's record. Scheduling in the past, or an empty SmallFn,
     * is a bug and panics.
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&fn)
    {
        return schedule(when, nextSeq_++, std::forward<F>(fn));
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleIn(Tick delay, F &&fn)
    {
        return schedule(now_ + delay, nextSeq_++, std::forward<F>(fn));
    }

    /**
     * Take the sequence number a schedule() call made now would use,
     * without scheduling anything. An event later scheduled under it
     * with schedule(when, seq, fn) fires in the same-tick position it
     * would have had if it had been scheduled at reservation time.
     */
    std::uint64_t reserveSeq() { return nextSeq_++; }

    /**
     * Schedule @p fn at @p when under a sequence number from
     * reserveSeq(). Passing a number that was never reserved panics.
     */
    template <typename F>
    EventHandle
    schedule(Tick when, std::uint64_t seq, F &&fn)
    {
        if (when < now_)
            PANIC("scheduling event in the past: ", when, " < ", now_);
        if (seq >= nextSeq_)
            PANIC("scheduling under an unreserved sequence number: ", seq);
        if constexpr (std::is_same_v<std::decay_t<F>, SmallFn<void()>>) {
            // An empty handler in a bucket marks a cancelled event.
            if (!fn)
                PANIC("scheduling an empty handler");
        }
        std::uint32_t slot = acquireSlot();
        Record &r = record(slot);
        r.fn.emplace(std::forward<F>(fn));
        ++live_;
        if (when - now_ < wheelSize)
            link(slot, when, seq);
        else
            push(HeapEntry{when, seq, slot, r.gen});
        return EventHandle(this, slot, r.gen);
    }

    /**
     * Cancel a previously scheduled event and clear @p h. Cancelling
     * an already-fired or empty handle is a harmless no-op.
     */
    void cancel(EventHandle &h);

    /**
     * Run the single next event, advancing time to it.
     * @return false if no live event remains.
     */
    bool runOne();

    /**
     * Run every event scheduled at or before @p limit, then advance
     * the clock to exactly @p limit.
     */
    void runUntil(Tick limit);

    /**
     * Run until no live event at or before @p limit remains. Unlike
     * runUntil, the clock is left at the last executed event. Never
     * executes an event scheduled after @p limit.
     */
    void runAll(Tick limit = maxTick);

    /** @return number of live (not cancelled, not yet fired) events. */
    std::size_t pending() const { return live_; }

    /**
     * @return entries held across both tiers: live events plus
     * lazily-deleted cancelled ones — wheel records not yet at the
     * front of the wheel and heap entries awaiting pruning or
     * compaction (introspection/benchmarks).
     */
    std::size_t heapSize() const { return heap_.size() + wheelEntries_; }

    /** @return total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** Width of the near tier, in ticks (one bucket per tick). */
    static constexpr std::uint32_t wheelSize = 1024;

    /**
     * A deep copy of the queue's full state: clock, sequence counter,
     * the record slab (handlers copied), free list, wheel and heap.
     * Taking one does not disturb the live queue; restore() rewinds the queue
     * to it exactly, slot for slot, so outstanding EventHandle
     * {slot, gen} triples from snapshot time become valid again.
     */
    struct Saved;

    /** Capture the queue state (every pending handler must be
     *  copyable — see SmallFn). Call between events, not from a
     *  handler. */
    Saved save() const;

    /** Rewind the queue to @p s, discarding the current state. Call
     *  between events, not from a handler. */
    void restore(const Saved &s);

  private:
    friend class EventHandle;

    /**
     * Slab cell: handler storage, the slot's current generation and,
     * for a near event, its seq and the next record in its bucket
     * (inHeap for a far event). A live record always holds a handler,
     * so an empty one in a bucket marks a cancelled near event.
     */
    struct Record
    {
        SmallFn<void()> fn;
        std::uint64_t seq = 0;
        std::uint32_t gen = 0;
        std::uint32_t next = nil;
    };

    /** End of a bucket list / an empty bucket. */
    static constexpr std::uint32_t nil = ~0u;
    /** Record::next of a far event: its key lives in the heap. */
    static constexpr std::uint32_t inHeap = nil - 1;
    static constexpr std::uint32_t wheelMask = wheelSize - 1;
    static_assert(wheelSize >= 64 && (wheelSize & wheelMask) == 0,
                  "the bitmap is a power of two of 64-bit words");
    static constexpr std::uint32_t bitmapWords = wheelSize / 64;

    /** A near-tier bucket: the events due at one tick, in seq order. */
    struct Bucket
    {
        std::uint32_t head = nil;
        std::uint32_t tail = nil;
    };

    /** Records per slab chunk; chunks are never moved or freed. */
    static constexpr std::uint32_t chunkBits = 8;
    static constexpr std::uint32_t chunkSize = 1u << chunkBits;

    /** Heap entry: plain data; the callable stays in the slab. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    Record &
    record(std::uint32_t slot)
    {
        return chunks_[slot >> chunkBits][slot & (chunkSize - 1)];
    }

    const Record &
    record(std::uint32_t slot) const
    {
        return chunks_[slot >> chunkBits][slot & (chunkSize - 1)];
    }

    /** @return true if @p e still refers to a live (uncancelled) event. */
    bool live(const HeapEntry &e) const { return record(e.slot).gen == e.gen; }

    /** A free slot: recycled, or carved from the slab. */
    std::uint32_t
    acquireSlot()
    {
        if (freeSlots_.empty())
            return carveSlot();
        std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }

    /** A never-used slot, growing the slab by a chunk when full. */
    std::uint32_t carveSlot();

    /** Add far event @p e to the heap. */
    void
    push(const HeapEntry &e)
    {
        record(e.slot).next = inHeap;
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), Later{});
        ++heapLive_;
    }

    /** Add near event @p slot to its bucket, in seq order. */
    void
    link(std::uint32_t slot, Tick when, std::uint64_t seq)
    {
        Record &r = record(slot);
        r.seq = seq;
        r.next = nil;
        std::uint32_t i = static_cast<std::uint32_t>(when) & wheelMask;
        Bucket &b = buckets_[i];
        ++wheelEntries_;
        if (b.tail == nil) {
            b.head = b.tail = slot;
            occupied_[i >> 6] |= std::uint64_t{1} << (i & 63);
        } else if (record(b.tail).seq < seq) {
            record(b.tail).next = slot;
            b.tail = slot;
        } else {
            insertSorted(b, slot);
        }
    }

    /** Link @p slot into non-empty @p b ahead of its tail. */
    void insertSorted(Bucket &b, std::uint32_t slot);

    /** @return the first non-empty bucket from now on, or nil. */
    std::uint32_t firstBucket() const;

    /**
     * @return the bucket of the next live near event, freeing the
     * cancelled ones ahead of it, or nil if none is left.
     */
    std::uint32_t nearHead();

    /** Unlink the head record of bucket @p i and return its slot. */
    std::uint32_t unlinkHead(std::uint32_t i);

    /** The next live event: its key, and where it is held. */
    struct Next
    {
        Tick when;
        std::uint32_t bucket; ///< its wheel bucket, or nil: heap top
    };

    /**
     * Drop cancelled heads from both tiers and find the next live
     * event. @return false if none remains.
     */
    bool peek(Next &n);

    /** Take the event @p n off its tier and fire it. */
    void take(const Next &n);

    /** Drop cancelled entries from the top of the heap. */
    void pruneStaleHead();

    /** Pop the head entry off the heap (must exist). */
    HeapEntry popHead();

    /**
     * Execute the event in @p slot at @p when: advance time, retire
     * the handle, invoke the handler in its record, then free the
     * slot. The slot is freed only after the handler returns, so
     * nothing it schedules can overwrite it.
     */
    void fire(std::uint32_t slot, Tick when);

    /** Rebuild the heap without cancelled entries when they dominate. */
    void maybeCompact();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t live_ = 0;
    bool firing_ = false; ///< a handler is running (save/restore guard)
    std::vector<std::unique_ptr<Record[]>> chunks_;
    std::uint32_t slots_ = 0; ///< slots carved so far, in use or free
    std::vector<std::uint32_t> freeSlots_;
    std::vector<HeapEntry> heap_;
    std::size_t heapLive_ = 0; ///< live events in the heap
    std::size_t wheelEntries_ = 0; ///< linked records, cancelled included
    std::array<std::uint64_t, bitmapWords> occupied_{};
    std::array<Bucket, wheelSize> buckets_{};
};

inline bool
EventHandle::pending() const
{
    return queue_ && queue_->record(slot_).gen == gen_;
}

struct EventQueue::Saved
{
    Tick now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
    std::size_t live = 0;
    std::vector<Record> records; ///< one per carved slot; handlers copied
    std::vector<std::uint32_t> freeSlots;
    std::array<Bucket, wheelSize> buckets{};
    std::array<std::uint64_t, bitmapWords> occupied{};
    std::size_t wheelEntries = 0;
    std::vector<HeapEntry> heap;
    std::size_t heapLive = 0;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_EVENT_QUEUE_HH
