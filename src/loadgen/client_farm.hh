/**
 * @file
 * The client population: open-loop Poisson request generation over a
 * Zipf-popular file set, round-robin DNS across the server nodes, and
 * the paper's request timeouts (2 s to connect, 6 s to complete).
 * Successes and failures are recorded into per-second time series —
 * the raw material of the paper's throughput plots and of the
 * availability metric (fraction of requests served successfully) —
 * and every served request's total latency goes into a
 * StageLatencyTimeline.
 *
 * A LoadProfileSpec can modulate the offered rate (diurnal curves,
 * flash crowds); profile-driven draws come from a split RNG stream,
 * so the default profile reproduces the historical draw sequence
 * exactly.
 */

#ifndef PERFORMA_LOADGEN_CLIENT_FARM_HH
#define PERFORMA_LOADGEN_CLIENT_FARM_HH

#include <vector>

#include "loadgen/generator.hh"
#include "sim/deadline_fifo.hh"
#include "sim/random.hh"

namespace performa::loadgen {

/** The mutable state of a ClientFarm beside its recording and its
 *  deadline FIFO (a snapshot copies it whole). */
struct ClientFarmState
{
    explicit ClientFarmState(sim::Rng rng) : splitRng_(rng) {}

    sim::Rng splitRng_;
    bool running_ = false;
    std::uint64_t generation_ = 0;
    sim::RequestId nextReq_ = 1;
    std::size_t rrServer_ = 0;
    std::size_t rrClient_ = 0;
    std::size_t pending_ = 0; ///< unanswered entries of deadlines_
};

/**
 * Drives the cluster through the client network. One instance models
 * the whole set of client machines.
 */
class ClientFarm : public LoadGenerator, private ClientFarmState
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

    /** In-flight (not yet answered or timed out) request count. */
    std::size_t pendingCount() const { return pending_; }

    const sim::ZipfSampler &popularity() const { return zipf_; }

    /** Snapshot state: generation counters, in-flight requests, RNG
     *  stream and the recording. */
    struct Saved;

    Saved save() const;
    void restore(const Saved &s);
    void registerWith(sim::SnapshotRegistry &reg) override;

  private:
    friend class sim::DeadlineFifo<bool, ClientFarm>;

    void arrivalTick();
    void issueRequest();
    void onResponse(const press::ClientResponseBody &body) override;
    bool deadlineLive(const bool &answered) const { return !answered; }
    /** An unanswered request's deadline passed: fail it. */
    void deadlineExpired(const bool &answered);

    /** Profile draws come from the split stream; the default profile
     *  keeps drawing from the shared, historical stream. */
    sim::Rng &genRng() { return shaped_ ? splitRng_ : sim_.rng(); }

    bool shaped_; ///< profile_ modulates this farm
    sim::ZipfSampler zipf_;

    /**
     * The answered flags of issued requests not yet past their
     * deadline, oldest first; the newest is request nextReq_ - 1.
     * Every request has the same timeout, so a single expiry at the
     * completion deadline covers both the connect (2 s) and the
     * request (6 s) timeout: an unanswered request is failed either
     * way. Answered entries leave only from the front, so
     * onResponse's age index stays valid.
     */
    sim::DeadlineFifo<bool, ClientFarm> deadlines_;
};

struct ClientFarm::Saved : ClientFarmState
{
    Recording recording;
    sim::DeadlineFifo<bool, ClientFarm>::Saved deadlines;
};

} // namespace performa::loadgen

#endif // PERFORMA_LOADGEN_CLIENT_FARM_HH
