/**
 * @file
 * Per-server counters: what a production PRESS would export for
 * monitoring, and what the benches and tests use to explain
 * throughput changes (cache effectiveness, forwarding rates, disk
 * pressure, admission drops, stall time).
 */

#ifndef PERFORMA_PRESS_SERVER_STATS_HH
#define PERFORMA_PRESS_SERVER_STATS_HH

#include <cstdint>

#include "sim/types.hh"

namespace performa::press {

/** Monotonic counters for one server process (survive restarts). */
struct ServerStats
{
    // Client side
    std::uint64_t accepted = 0;   ///< requests admitted
    std::uint64_t refused = 0;    ///< dropped at the accept queue
    std::uint64_t responses = 0;  ///< responses sent to clients

    // Dispatch outcomes
    std::uint64_t localHits = 0;  ///< served from the local cache
    std::uint64_t forwarded = 0;  ///< sent to a service node
    std::uint64_t localMisses = 0;///< local disk fetch + cache fill

    // Service-node side
    std::uint64_t fwdServed = 0;  ///< forwards served for peers
    std::uint64_t fwdMisses = 0;  ///< forwards that went to disk

    // Cache dynamics
    std::uint64_t cacheInserts = 0;
    std::uint64_t cacheEvictions = 0;
    std::uint64_t pinFailures = 0; ///< evictions forced by pin budget

    // Comm layer
    std::uint64_t broadcastsSent = 0;
    std::uint64_t stallEvents = 0;      ///< main-thread blocks
    sim::Tick stalledTime = 0;          ///< total time spent blocked
};

} // namespace performa::press

#endif // PERFORMA_PRESS_SERVER_STATS_HH
