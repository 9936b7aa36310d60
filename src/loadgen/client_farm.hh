/**
 * @file
 * The client population: open-loop Poisson request generation over a
 * Zipf-popular file set, round-robin DNS across the server nodes, and
 * the paper's request timeouts (2 s to connect, 6 s to complete).
 * Successes and failures are recorded into per-second time series —
 * the raw material of the paper's throughput plots and of the
 * availability metric (fraction of requests served successfully) —
 * and every served request's stamped per-stage latency goes into a
 * StageLatencyTimeline.
 *
 * A LoadProfileSpec can modulate the offered rate (diurnal curves,
 * flash crowds); profile-driven draws come from a split RNG stream,
 * so the default profile reproduces the historical draw sequence
 * exactly.
 */

#ifndef PERFORMA_LOADGEN_CLIENT_FARM_HH
#define PERFORMA_LOADGEN_CLIENT_FARM_HH

#include <cstdint>
#include <vector>

#include "loadgen/generator.hh"
#include "loadgen/load_profile.hh"
#include "net/network.hh"
#include "sim/latency_histogram.hh"
#include "sim/random.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulation.hh"
#include "sim/time_series.hh"
#include "sim/types.hh"

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
 * Drives the cluster through the client network. One instance models
 * the whole set of client machines.
 */
class ClientFarm : public LoadGenerator
{
  public:
    ClientFarm(sim::Simulation &s, net::Network &client_net,
               std::vector<net::PortId> server_ports,
               std::vector<net::PortId> client_ports, WorkloadConfig cfg,
               LoadProfileSpec profile = {});

    /** Begin generating requests (runs until stop()). */
    void start() override;

    /** Stop generating new requests. */
    void stop() override;

    const sim::TimeSeries &served() const override { return served_; }
    const sim::TimeSeries &failed() const override { return failed_; }
    const sim::TimeSeries &offered() const override { return offered_; }

    std::uint64_t totalServed() const override { return totalServed_; }
    std::uint64_t totalFailed() const override { return totalFailed_; }
    std::uint64_t totalOffered() const override { return totalOffered_; }

    /** In-flight (not yet answered or timed out) request count. */
    std::size_t pendingCount() const { return pending_; }

    /** Per-stage (connect/queue/service/total) latency histograms,
     *  one slice per second. */
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

    const WorkloadConfig &config() const { return cfg_; }
    const LoadProfileSpec &profile() const { return profile_; }
    const sim::ZipfSampler &popularity() const { return zipf_; }

    /** Snapshot state: generation counters, in-flight requests, RNG
     *  stream and the recorded series/histograms. */
    struct Saved;

    Saved save() const;
    void restore(const Saved &s);
    void registerWith(sim::SnapshotRegistry &reg) override;

  private:
    void arrivalTick();
    void issueRequest();
    void onResponse(net::Frame &&f);
    /** The head request's deadline: fail it if still unanswered, then
     *  skip the answered entries behind it and arm the next head. */
    void expire();
    /** Schedule expire() for the head of deadlines_. */
    void armHead();

    /** Profile draws come from the split stream; the default profile
     *  keeps drawing from the shared, historical stream. */
    sim::Rng &genRng() { return shaped_ ? splitRng_ : sim_.rng(); }

    sim::Simulation &sim_;
    net::Network &net_;
    std::vector<net::PortId> serverPorts_;
    std::vector<net::PortId> clientPorts_;
    WorkloadConfig cfg_;
    LoadProfileSpec profile_;
    bool shaped_; ///< profile_ modulates this farm
    sim::Rng splitRng_;
    sim::ZipfSampler zipf_;

    bool running_ = false;
    std::uint64_t generation_ = 0;
    sim::RequestId nextReq_ = 1;
    std::size_t rrServer_ = 0;
    std::size_t rrClient_ = 0;

    /**
     * One issued request awaiting its deadline. Every request has the
     * same timeout, so deadlines come due in issue order: a FIFO with
     * one armed event for its head replaces a heap entry per request.
     * An event is armed exactly when the FIFO is non-empty, and for
     * its head; answered entries leave only from the front, when an
     * expiry passes over them, so onResponse's age index stays valid.
     */
    struct Deadline
    {
        sim::Tick when;
        std::uint64_t seq; ///< reserved event seq the expiry fires under
        bool answered;
    };
    /** Issued requests not yet past their deadline, oldest first;
     *  the newest is request nextReq_ - 1. */
    sim::RingBuffer<Deadline> deadlines_;
    std::size_t pending_ = 0; ///< unanswered entries of deadlines_

    sim::TimeSeries served_;
    sim::TimeSeries failed_;
    sim::TimeSeries offered_;
    sim::StageLatencyTimeline timeline_;
    std::uint64_t totalServed_ = 0;
    std::uint64_t totalFailed_ = 0;
    std::uint64_t totalOffered_ = 0;
};

struct ClientFarm::Saved
{
    sim::Rng splitRng;
    bool running;
    std::uint64_t generation;
    sim::RequestId nextReq;
    std::size_t rrServer;
    std::size_t rrClient;
    sim::RingBuffer<Deadline> deadlines;
    std::size_t pending;
    sim::TimeSeries served;
    sim::TimeSeries failed;
    sim::TimeSeries offered;
    sim::StageLatencyTimeline timeline;
    std::uint64_t totalServed;
    std::uint64_t totalFailed;
    std::uint64_t totalOffered;
};

} // namespace performa::loadgen

#endif // PERFORMA_LOADGEN_CLIENT_FARM_HH
