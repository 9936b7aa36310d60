/**
 * @file
 * Serially-executing CPU model. PRESS is structured around one main
 * coordinating thread per node; the Cpu models that thread's execution
 * time: work items are charged a cost in microseconds and complete in
 * FIFO order. Pausing the Cpu models blocking (a send with no buffer
 * space), SIGSTOP, and node freezes.
 */

#ifndef PERFORMA_OS_CPU_HH
#define PERFORMA_OS_CPU_HH

#include <cstdint>

#include "sim/ring_buffer.hh"
#include "sim/simulation.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::osim {

/** The mutable state of a Cpu (a snapshot copies it whole). */
struct CpuState
{
    struct Item
    {
        sim::Tick cost;
        sim::SmallFn<void()> done;
    };

    sim::RingBuffer<Item> queue_;
    Item inflight_{}; ///< item being executed; keeps the completion
                      ///< event's capture down to {this, generation}
    bool running_ = false;
    int pauseCount_ = 0;
    std::uint64_t generation_ = 0; ///< invalidates in-flight completions
    sim::Tick busyTime_ = 0;
};

/**
 * A single execution lane with a FIFO run queue.
 *
 * Work submitted while the lane is busy or paused waits; throughput
 * under saturation therefore emerges naturally from per-item costs.
 */
class Cpu : private CpuState
{
  public:
    explicit Cpu(sim::Simulation &s) : sim_(s)
    {
        queue_.reserve(initialQueueSlots);
    }

    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    /**
     * Queue a work item costing @p cost microseconds; @p done runs
     * when the item retires. Small completions (the common `this` +
     * id captures) are stored inline, allocation-free.
     */
    void exec(sim::Tick cost, sim::SmallFn<void()> done);

    /**
     * Suspend processing. Pauses nest (a node freeze on top of a
     * blocked send requires two resumes). The in-flight item, if any,
     * is allowed to retire.
     */
    void pause();

    /** Undo one pause(). */
    void resume();

    /** Drop all queued work and any in-flight item (node crash). */
    void clear();

    bool paused() const { return pauseCount_ > 0; }
    bool idle() const { return !running_ && queue_.empty(); }
    std::size_t queueLength() const { return queue_.size(); }

    /** Total microseconds of work retired (utilization accounting). */
    sim::Tick busyTime() const { return busyTime_; }

    /** Snapshot state: run queue and in-flight item (completions
     *  copied), pause depth, generation and accounting. Restoring
     *  refills the run queue in place, keeping its capacity. */
    using Saved = CpuState;

    Saved save() const { return *this; }
    void restore(const Saved &s) { CpuState::operator=(s); }

  private:
    /**
     * Run-queue slots carved up front. A lightly loaded node (VIA
     * kernel work is a few items deep) may not reach its high-water
     * mark within a warm-up; starting here keeps a warmed node's
     * steady state allocation-free. Deeper queues still grow.
     */
    static constexpr std::size_t initialQueueSlots = 64;

    /** Start the next item if the lane is free. */
    void maybeStart();

    sim::Simulation &sim_;
};

} // namespace performa::osim

#endif // PERFORMA_OS_CPU_HH
