/**
 * @file
 * The LoadGenerator interface: what an experiment needs from any
 * client population — start/stop, the served/failed/offered series,
 * and the per-stage latency timeline. The open-loop ClientFarm and
 * the session-based SessionFarm both implement it; makeLoadGenerator
 * picks the right one for a LoadProfileSpec.
 */

#ifndef PERFORMA_LOADGEN_GENERATOR_HH
#define PERFORMA_LOADGEN_GENERATOR_HH

#include <memory>
#include <vector>

#include "net/network.hh"
#include "sim/latency_histogram.hh"
#include "sim/simulation.hh"
#include "sim/time_series.hh"

namespace performa::press {
struct ClientResponseBody;
}

namespace performa::sim {
class SnapshotRegistry;
}

namespace performa::loadgen {

struct LoadProfileSpec;
struct WorkloadConfig;

/** RNG stream salt for split-stream (profile-driven) generators. */
inline constexpr std::uint64_t kLoadgenRngSalt = 0x10adc0de;

class LoadGenerator
{
  public:
    virtual ~LoadGenerator() = default;

    virtual void start() = 0;
    virtual void stop() = 0;

    virtual const sim::TimeSeries &served() const = 0;
    virtual const sim::TimeSeries &failed() const = 0;
    virtual const sim::TimeSeries &offered() const = 0;

    virtual std::uint64_t totalServed() const = 0;
    virtual std::uint64_t totalFailed() const = 0;
    virtual std::uint64_t totalOffered() const = 0;

    virtual const sim::StageLatencyTimeline &timeline() const = 0;
    /** Move the timeline out (experiment teardown). */
    virtual sim::StageLatencyTimeline stealTimeline() = 0;

    /** Attach this generator's mutable state to a snapshot registry
     *  (each concrete farm registers its own Saved type). */
    virtual void registerWith(sim::SnapshotRegistry &reg) = 0;
};

/**
 * Instantiate the generator for @p profile: a SessionFarm when the
 * profile asks for session clients, else the open-loop ClientFarm
 * (with the profile's rate modulation applied). With a default
 * profile the ClientFarm is byte-identical to the pre-loadgen
 * behaviour: every random draw still comes from sim.rng() in the
 * same order.
 */
std::unique_ptr<LoadGenerator>
makeLoadGenerator(sim::Simulation &sim, net::Network &client_net,
                  std::vector<net::PortId> server_ports,
                  std::vector<net::PortId> client_ports,
                  const WorkloadConfig &cfg,
                  const LoadProfileSpec &profile);

/**
 * Decode the server's latency stamps from a response and record the
 * per-stage samples. @p record_connect lets session clients restrict
 * the connect sample to a connection's first request (later requests
 * reuse the connection). Responses carrying no stamps at all
 * record nothing.
 */
void recordResponseLatency(sim::StageLatencyTimeline &tl, sim::Tick now,
                           const press::ClientResponseBody &body,
                           bool record_connect = true);

} // namespace performa::loadgen

#endif // PERFORMA_LOADGEN_GENERATOR_HH
