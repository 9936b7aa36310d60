/**
 * @file
 * Session-based closed-loop clients: a fixed population of users who
 * connect to a server, issue a burst of requests over the same
 * connection with think-time pauses, and then leave (a new session
 * takes the seat immediately). Complements the paper's open-loop farm
 * with the connection-reuse traffic shape of real browsers, and is
 * the load half of the "millions of users" heavy-traffic engine.
 *
 * Steady state is allocation-free: the session table is a fixed
 * vector, responses are matched by an index encoded in the request id
 * (no map), expiry timers are slab-backed EventHandles cancelled on
 * response, and latencies go into pre-reserved histograms.
 *
 * All randomness (think times, session lengths, file picks) draws
 * from a split RNG stream, never from the shared sim.rng().
 */

#ifndef PERFORMA_LOADGEN_SESSION_FARM_HH
#define PERFORMA_LOADGEN_SESSION_FARM_HH

#include <cstdint>
#include <vector>

#include "loadgen/client_farm.hh"
#include "loadgen/generator.hh"
#include "loadgen/load_profile.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/latency_histogram.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/time_series.hh"

namespace performa::loadgen {

class SessionFarm : public LoadGenerator
{
  public:
    SessionFarm(sim::Simulation &s, net::Network &client_net,
                std::vector<net::PortId> server_ports,
                std::vector<net::PortId> client_ports,
                WorkloadConfig cfg, LoadProfileSpec profile);

    void start() override;
    void stop() override;

    const sim::TimeSeries &served() const override { return served_; }
    const sim::TimeSeries &failed() const override { return failed_; }
    const sim::TimeSeries &offered() const override { return offered_; }

    std::uint64_t totalServed() const override { return totalServed_; }
    std::uint64_t totalFailed() const override { return totalFailed_; }
    std::uint64_t totalOffered() const override { return totalOffered_; }

    const sim::StageLatencyTimeline &
    timeline() const override
    {
        return timeline_;
    }
    sim::StageLatencyTimeline
    stealTimeline() override
    {
        return std::move(timeline_);
    }

    /**
     * Requests in flight when stop() was called: their expiry timers
     * are cancelled and late responses dropped, so offered == served
     * + failed + abandoned + pendingCount() holds at any time.
     */
    std::uint64_t totalAbandoned() const { return totalAbandoned_; }
    /** In-flight (not yet answered or timed out) request count. */
    std::size_t pendingCount() const;

    std::size_t sessionCount() const { return sessions_.size(); }
    /** Sessions ended so far (completed or abandoned on timeout). */
    std::uint64_t completedSessions() const { return completedSessions_; }
    const WorkloadConfig &config() const { return cfg_; }

    /** Snapshot state: the session table (expiry EventHandles stay
     *  valid because the event queue restores slot-for-slot), RNG
     *  stream and recorded series/histograms. */
    struct Saved;

    Saved save() const;
    void restore(const Saved &s);
    void registerWith(sim::SnapshotRegistry &reg) override;

  private:
    struct Session
    {
        std::size_t server = 0;   ///< sticky: the reused connection
        std::uint32_t remaining = 0; ///< requests left in the session
        std::uint32_t seq = 0;    ///< per-session request sequence
        sim::Tick sentAt = 0;
        bool inFlight = false;
        bool firstRequest = true; ///< first on this connection
        sim::EventHandle expiry;
    };

    void beginSession(std::size_t idx);
    void think(std::size_t idx);
    void sendRequest(std::size_t idx);
    void onResponse(net::Frame &&f);
    void expire(std::size_t idx, std::uint32_t seq);

    sim::RequestId
    encodeReq(std::size_t idx, std::uint32_t seq) const
    {
        return (static_cast<sim::RequestId>(idx + 1) << 32) | seq;
    }

    sim::Simulation &sim_;
    net::Network &net_;
    std::vector<net::PortId> serverPorts_;
    std::vector<net::PortId> clientPorts_;
    WorkloadConfig cfg_;
    LoadProfileSpec profile_;
    sim::Rng rng_;
    sim::ZipfSampler zipf_;

    bool running_ = false;
    std::uint64_t generation_ = 0;
    std::size_t rrServer_ = 0;
    std::vector<Session> sessions_;

    sim::TimeSeries served_;
    sim::TimeSeries failed_;
    sim::TimeSeries offered_;
    sim::StageLatencyTimeline timeline_;
    std::uint64_t totalServed_ = 0;
    std::uint64_t totalFailed_ = 0;
    std::uint64_t totalOffered_ = 0;
    std::uint64_t totalAbandoned_ = 0;
    std::uint64_t completedSessions_ = 0;
};

struct SessionFarm::Saved
{
    sim::Rng rng;
    bool running;
    std::uint64_t generation;
    std::size_t rrServer;
    std::vector<Session> sessions;
    sim::TimeSeries served;
    sim::TimeSeries failed;
    sim::TimeSeries offered;
    sim::StageLatencyTimeline timeline;
    std::uint64_t totalServed;
    std::uint64_t totalFailed;
    std::uint64_t totalOffered;
    std::uint64_t totalAbandoned;
    std::uint64_t completedSessions;
};

} // namespace performa::loadgen

#endif // PERFORMA_LOADGEN_SESSION_FARM_HH
