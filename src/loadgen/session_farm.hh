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
 * (no map), and latencies go into pre-reserved histograms. Timeouts
 * wait in two deadline FIFOs, one per timeout class (a connection's
 * first request gets the connect timeout, later ones the request
 * timeout), each with one armed event for its head; an answered
 * request's entry is simply skipped when its FIFO passes over it.
 *
 * All randomness (think times, session lengths, file picks) draws
 * from a split RNG stream, never from the shared sim.rng().
 */

#ifndef PERFORMA_LOADGEN_SESSION_FARM_HH
#define PERFORMA_LOADGEN_SESSION_FARM_HH

#include <cstdint>
#include <vector>

#include "loadgen/generator.hh"
#include "sim/deadline_fifo.hh"
#include "sim/random.hh"

namespace performa::loadgen {

/** The mutable state of a SessionFarm beside its recording and its
 *  deadline FIFOs (a snapshot copies it whole). */
struct SessionFarmState
{
    struct Session
    {
        std::size_t server = 0;   ///< sticky: the reused connection
        std::uint32_t remaining = 0; ///< requests left in the session
        std::uint32_t seq = 0;    ///< per-session request sequence
        bool inFlight = false;
        bool firstRequest = true; ///< first on this connection
    };

    explicit SessionFarmState(sim::Rng rng) : rng_(rng) {}

    sim::Rng rng_;
    bool running_ = false;
    std::uint64_t generation_ = 0;
    std::size_t rrServer_ = 0;
    std::vector<Session> sessions_;
    std::uint64_t totalAbandoned_ = 0;
    std::uint64_t completedSessions_ = 0;
};

class SessionFarm : public LoadGenerator, private SessionFarmState
{
  public:
    SessionFarm(sim::Simulation &s, net::Network &client_net,
                std::vector<net::PortId> server_ports,
                std::vector<net::PortId> client_ports,
                WorkloadConfig cfg, LoadProfileSpec profile);

    void start() override;
    void stop() override;

    /**
     * Requests in flight when stop() was called: their deadlines go
     * dead and late responses are dropped, so offered == served +
     * failed + abandoned + pendingCount() holds at any time.
     */
    std::uint64_t totalAbandoned() const { return totalAbandoned_; }
    /** In-flight (not yet answered or timed out) request count. */
    std::size_t pendingCount() const;

    std::size_t sessionCount() const { return sessions_.size(); }
    /** Sessions ended so far (completed or abandoned on timeout). */
    std::uint64_t completedSessions() const { return completedSessions_; }

    /** Snapshot state: the session table, both deadline FIFOs, RNG
     *  stream and the recording. */
    struct Saved;

    Saved save() const;
    void restore(const Saved &s);
    void registerWith(sim::SnapshotRegistry &reg) override;

  private:
    /** A request awaiting its deadline: live while its session still
     *  waits on request @c seq. A session's seq only grows, so a
     *  dead entry stays dead. */
    struct Deadline
    {
        std::uint32_t idx;
        std::uint32_t seq;
    };
    using DeadlineFifo = sim::DeadlineFifo<Deadline, SessionFarm>;
    friend DeadlineFifo;

    void beginSession(std::size_t idx);
    void think(std::size_t idx);
    void sendRequest(std::size_t idx);
    void onResponse(const press::ClientResponseBody &body) override;
    bool
    deadlineLive(const Deadline &d) const
    {
        const Session &sess = sessions_[d.idx];
        return sess.inFlight && sess.seq == d.seq;
    }
    /** The request timed out: the user gives up on the session. */
    void deadlineExpired(const Deadline &d);

    sim::RequestId
    encodeReq(std::size_t idx, std::uint32_t seq) const
    {
        return (static_cast<sim::RequestId>(idx + 1) << 32) | seq;
    }

    sim::ZipfSampler zipf_;
    DeadlineFifo connectDeadlines_; ///< connections' first requests
    DeadlineFifo requestDeadlines_; ///< requests on a reused connection
};

struct SessionFarm::Saved : SessionFarmState
{
    Recording recording;
    DeadlineFifo::Saved connectDeadlines;
    DeadlineFifo::Saved requestDeadlines;
};

} // namespace performa::loadgen

#endif // PERFORMA_LOADGEN_SESSION_FARM_HH
