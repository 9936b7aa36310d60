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
 * addressed by {slot, generation} handles, and the heap holds only
 * plain 24-byte {when, seq, slot, gen} entries. The slab grows in
 * fixed-size chunks, so a record never moves: schedule() builds the
 * handler directly in its record and fire() invokes it there, with no
 * intermediate holder and no relocation. Scheduling a handler whose
 * captures fit SmallFn's inline buffer performs no allocation once the
 * slab has warmed up, and cancellation is a generation bump — O(1),
 * allocation-free. Cancelled entries are deleted lazily: they are
 * dropped when they reach the top of the heap, and when they ever
 * outnumber live entries the heap is compacted in one pass, so the
 * heap stays bounded at < 2x the number of live events even under
 * cancel-heavy workloads.
 */

#ifndef PERFORMA_SIM_EVENT_QUEUE_HH
#define PERFORMA_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
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
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** @return true if the handle refers to an event not yet fired. */
    bool pending() const;

  private:
    friend class EventQueue;

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
     * the event's record. Scheduling in the past is a bug and panics.
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
        std::uint32_t slot = acquireSlot();
        Record &r = record(slot);
        r.fn.emplace(std::forward<F>(fn));
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
     * @return heap entries held: live events plus lazily-deleted
     * cancelled ones awaiting compaction (introspection/benchmarks).
     */
    std::size_t heapSize() const { return heap_.size(); }

    /** @return total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * A deep copy of the queue's full state: clock, sequence counter,
     * the record slab (handlers copied), free list and heap. Taking
     * one does not disturb the live queue; restore() rewinds the queue
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

    /** Slab cell: handler storage plus the slot's current generation. */
    struct Record
    {
        SmallFn<void()> fn;
        std::uint32_t gen = 0;
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

    /** Add @p e to the heap and count it live. */
    void
    push(const HeapEntry &e)
    {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), Later{});
        ++live_;
    }

    /** Drop cancelled entries from the top of the heap. */
    void pruneStaleHead();

    /** Pop the head entry off the heap (must exist). */
    HeapEntry popHead();

    /**
     * Execute @p e: advance time, retire the handle, invoke the
     * handler in its record, then free the slot. The slot is freed
     * only after the handler returns, so nothing it schedules can
     * overwrite it.
     */
    void fire(const HeapEntry &e);

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
    std::vector<HeapEntry> heap;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_EVENT_QUEUE_HH
