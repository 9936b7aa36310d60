#include "os/cpu.hh"

#include <utility>

namespace performa::osim {

void
Cpu::exec(sim::Tick cost, sim::SmallFn<void()> done)
{
    queue_.emplace_back(cost, std::move(done));
    maybeStart();
}

void
Cpu::pause()
{
    ++pauseCount_;
}

void
Cpu::resume()
{
    if (pauseCount_ > 0)
        --pauseCount_;
    maybeStart();
}

void
Cpu::clear()
{
    queue_.clear();
    ++generation_; // orphan any in-flight completion
    inflight_.done.reset();
    running_ = false;
}

void
Cpu::maybeStart()
{
    if (running_ || pauseCount_ > 0 || queue_.empty())
        return;
    running_ = true;
    inflight_ = std::move(queue_.front());
    queue_.pop_front();
    std::uint64_t gen = generation_;
    // The item itself parks in inflight_, so the completion event
    // captures only {this, gen} and always stays in SmallFn's inline
    // buffer.
    sim_.scheduleIn(inflight_.cost, [this, gen] {
        if (gen != generation_)
            return; // cleared (node crashed) while in flight
        busyTime_ += inflight_.cost;
        running_ = false;
        // Move out before invoking: the completion may call exec(),
        // which starts the next item and overwrites inflight_.
        sim::SmallFn<void()> done = std::move(inflight_.done);
        done.consume();
        maybeStart();
    });
}

} // namespace performa::osim
