#include "sim/timer.hh"

#include "sim/logging.hh"

namespace performa::sim {

void
Timer::armedWhilePending()
{
    PANIC("arming a timer whose event is still pending");
}

} // namespace performa::sim
