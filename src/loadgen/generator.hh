/**
 * @file
 * LoadGenerator: the client population an experiment drives — the
 * open-loop ClientFarm or the session-based SessionFarm, picked by
 * makeLoadGenerator for a LoadProfileSpec. The base owns what both
 * record and how they hear back: the served/failed/offered series,
 * the per-stage latency timeline and the three totals, and the
 * response handler on every client port. Each farm times its
 * requests out through a sim::DeadlineFifo, so the paper's 2 s
 * connect and 6 s request timeouts cost one armed event per timeout
 * class, not one per request.
 */

#ifndef PERFORMA_LOADGEN_GENERATOR_HH
#define PERFORMA_LOADGEN_GENERATOR_HH

#include <memory>
#include <vector>

#include "loadgen/load_profile.hh"
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

/** Workload parameters. */
struct WorkloadConfig
{
    double requestRate = 6000.0; ///< aggregate offered load (req/s)
    std::size_t numFiles = 60000; ///< working set (uniform size)
    double zipfAlpha = 0.8;      ///< web-trace-like popularity skew
    sim::Tick connectTimeout = sim::sec(2);
    sim::Tick requestTimeout = sim::sec(6);
    std::uint64_t requestBytes = 300;
};

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

/** RNG stream salt for split-stream (profile-driven) generators. */
inline constexpr std::uint64_t kLoadgenRngSalt = 0x10adc0de;

class LoadGenerator
{
  public:
    virtual ~LoadGenerator() = default;

    virtual void start() = 0;
    virtual void stop() = 0;

    const sim::TimeSeries &served() const { return rec_.served; }
    const sim::TimeSeries &failed() const { return rec_.failed; }
    const sim::TimeSeries &offered() const { return rec_.offered; }

    std::uint64_t totalServed() const { return rec_.totalServed; }
    std::uint64_t totalFailed() const { return rec_.totalFailed; }
    std::uint64_t totalOffered() const { return rec_.totalOffered; }

    /** Whole-run latency histograms per stage (connect/queue/
     *  service/total), plus one-second slices of the total stage. */
    const sim::StageLatencyTimeline &timeline() const { return rec_.timeline; }

    const WorkloadConfig &config() const { return cfg_; }

    /** Attach this generator's mutable state to a snapshot registry
     *  (each concrete farm registers its own Saved type). */
    virtual void registerWith(sim::SnapshotRegistry &reg) = 0;

    /** What every generator records; each farm's Saved embeds it. */
    struct Recording
    {
        sim::TimeSeries served;
        sim::TimeSeries failed;
        sim::TimeSeries offered;
        sim::StageLatencyTimeline timeline;
        std::uint64_t totalServed = 0;
        std::uint64_t totalFailed = 0;
        std::uint64_t totalOffered = 0;
    };

  protected:
    /** Reserve the recording for the profile's run length and route
     *  the responses arriving on every client port to onResponse(). */
    LoadGenerator(sim::Simulation &s, net::Network &client_net,
                  std::vector<net::PortId> server_ports,
                  std::vector<net::PortId> client_ports,
                  WorkloadConfig cfg, LoadProfileSpec profile);

    /** Count request @p id for @p file as offered now and send it
     *  from @p client to @p server. */
    void offer(sim::RequestId id, sim::FileId file, net::PortId client,
               net::PortId server);

    /** Count a request answered now, with its latency stamps. */
    void
    recordServed(const press::ClientResponseBody &body,
                 bool record_connect = true)
    {
        recordResponseLatency(rec_.timeline, sim_.now(), body,
                              record_connect);
        ++rec_.totalServed;
        rec_.served.record(sim_.now());
    }

    /** Count a request timed out now. */
    void
    recordFailed()
    {
        ++rec_.totalFailed;
        rec_.failed.record(sim_.now());
    }

    const Recording &recording() const { return rec_; }
    /** Copy @p r back, then re-reserve the series: the copies carry
     *  capacity == size, and recording must stay allocation-free for
     *  the rest of a forked run, as it is for a fresh one. */
    void restoreRecording(const Recording &r);

    sim::Simulation &sim_;
    net::Network &net_;
    std::vector<net::PortId> serverPorts_;
    std::vector<net::PortId> clientPorts_;
    WorkloadConfig cfg_;
    LoadProfileSpec profile_;

  private:
    /** A response arrived on one of the client ports. */
    virtual void onResponse(const press::ClientResponseBody &body) = 0;

    void reserveSeries();

    Recording rec_;
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

} // namespace performa::loadgen

#endif // PERFORMA_LOADGEN_GENERATOR_HH
