/**
 * @file
 * Per-node disk subsystem: a small array of independent disks with
 * seek-plus-transfer service times. PRESS's disk helper threads mean
 * reads do not block the main thread; completion is delivered as a
 * callback.
 */

#ifndef PERFORMA_PRESS_DISK_HH
#define PERFORMA_PRESS_DISK_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulation.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::press {

/** The mutable state of a DiskArray (a snapshot copies it whole). */
struct DiskState
{
    std::vector<sim::Tick> freeAt_; ///< per-disk booking horizon
    std::uint64_t reads_ = 0;
};

/**
 * N independent disks with FIFO queues; a read is dispatched to the
 * disk that frees up first.
 */
class DiskArray : private DiskState
{
  public:
    DiskArray(sim::Simulation &s, std::uint32_t disks, sim::Tick seek,
              double bytes_per_usec)
        : DiskState{std::vector<sim::Tick>(disks, 0)}, sim_(s),
          seek_(seek), bytesPerUsec_(bytes_per_usec)
    {}

    /**
     * Read @p bytes; @p done fires when the transfer completes (it
     * moves into the completion event's record). Returns the
     * completion time.
     */
    sim::Tick
    read(std::uint64_t bytes, sim::SmallFn<void()> done)
    {
        // Pick the disk with the earliest availability.
        std::size_t best = 0;
        for (std::size_t i = 1; i < freeAt_.size(); ++i) {
            if (freeAt_[i] < freeAt_[best])
                best = i;
        }
        sim::Tick start = std::max(sim_.now(), freeAt_[best]);
        sim::Tick service = seek_ +
            static_cast<sim::Tick>(static_cast<double>(bytes) /
                                   bytesPerUsec_);
        sim::Tick finish = start + service;
        freeAt_[best] = finish;
        ++reads_;
        sim_.schedule(finish, std::move(done));
        return finish;
    }

    std::uint64_t reads() const { return reads_; }

    /** Snapshot state: per-disk booking horizon and the read count. */
    using Saved = DiskState;

    Saved save() const { return *this; }
    void restore(const Saved &s) { DiskState::operator=(s); }

    /** Mean queue depth proxy: how far ahead of now the disks are booked. */
    sim::Tick
    backlog() const
    {
        sim::Tick now = sim_.now();
        sim::Tick total = 0;
        for (auto f : freeAt_)
            total += f > now ? f - now : 0;
        return total;
    }

  private:
    sim::Simulation &sim_;
    sim::Tick seek_;
    double bytesPerUsec_;
};

} // namespace performa::press

#endif // PERFORMA_PRESS_DISK_HH
