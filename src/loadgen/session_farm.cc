#include "loadgen/session_farm.hh"

#include <random>

#include "press/messages.hh"
#include "sim/snapshot.hh"

namespace performa::loadgen {

namespace {

/** Population that offers roughly the configured open-loop rate:
 *  each user contributes ~1/(think + a nominal response) req/s. */
std::size_t
derivedSessionCount(const WorkloadConfig &cfg,
                    const LoadProfileSpec &profile)
{
    double think_s = sim::toSeconds(profile.meanThink);
    double per_user = 1.0 / (think_s + 0.05);
    double n = cfg.requestRate * profile.rateScale / per_user;
    return n < 1.0 ? 1 : static_cast<std::size_t>(n);
}

} // namespace

SessionFarm::SessionFarm(sim::Simulation &s, net::Network &client_net,
                         std::vector<net::PortId> server_ports,
                         std::vector<net::PortId> client_ports,
                         WorkloadConfig cfg, LoadProfileSpec profile)
    : LoadGenerator(s, client_net, std::move(server_ports),
                    std::move(client_ports), cfg, std::move(profile)),
      SessionFarmState(s.splitRng(kLoadgenRngSalt)),
      zipf_(cfg.numFiles, cfg.zipfAlpha),
      connectDeadlines_(s.events(), *this, cfg.connectTimeout),
      requestDeadlines_(s.events(), *this, cfg.requestTimeout)
{
    std::size_t n = profile_.sessionCount
                        ? profile_.sessionCount
                        : derivedSessionCount(cfg_, profile_);
    sessions_.resize(n);
}

void
SessionFarm::start()
{
    if (running_)
        return;
    running_ = true;
    ++generation_;
    for (std::size_t i = 0; i < sessions_.size(); ++i)
        beginSession(i);
}

void
SessionFarm::stop()
{
    running_ = false;
    ++generation_;
    // Abandon in-flight requests: their seq bump makes late responses
    // no-ops and their deadlines dead.
    for (auto &sess : sessions_) {
        if (sess.inFlight) {
            sess.inFlight = false;
            ++sess.seq;
            ++totalAbandoned_;
        }
    }
}

std::size_t
SessionFarm::pendingCount() const
{
    std::size_t n = 0;
    for (const auto &sess : sessions_)
        n += sess.inFlight;
    return n;
}

void
SessionFarm::beginSession(std::size_t idx)
{
    Session &sess = sessions_[idx];
    // A fresh user: new connection to the next server (round-robin
    // DNS), a geometrically distributed number of requests.
    sess.server = rrServer_;
    rrServer_ = (rrServer_ + 1) % serverPorts_.size();
    double mean = profile_.meanRequestsPerSession;
    if (mean < 1.0)
        mean = 1.0;
    sess.remaining =
        1 + std::geometric_distribution<std::uint32_t>(1.0 / mean)(
                rng_.engine());
    sess.firstRequest = true;
    sess.inFlight = false;
    think(idx);
}

void
SessionFarm::think(std::size_t idx)
{
    std::uint64_t gen = generation_;
    sim_.scheduleIn(rng_.exponential(profile_.meanThink),
                    [this, idx, gen] {
                        if (gen == generation_ && running_)
                            sendRequest(idx);
                    });
}

void
SessionFarm::sendRequest(std::size_t idx)
{
    Session &sess = sessions_[idx];
    sess.inFlight = true;
    ++sess.seq;
    sim::FileId file = static_cast<sim::FileId>(zipf_.sample(rng_));
    offer(encodeReq(idx, sess.seq), file,
          clientPorts_[idx % clientPorts_.size()], serverPorts_[sess.server]);

    // First request on a connection pays the connect timeout; later
    // ones reuse the connection and get the request timeout. The push
    // reserves the seq a per-request timer would have taken here.
    (sess.firstRequest ? connectDeadlines_ : requestDeadlines_)
        .push(Deadline{static_cast<std::uint32_t>(idx), sess.seq});
}

void
SessionFarm::onResponse(const press::ClientResponseBody &body)
{
    std::size_t idx = static_cast<std::size_t>(body.req >> 32);
    if (idx == 0 || idx > sessions_.size())
        return;
    Session &sess = sessions_[idx - 1];
    std::uint32_t seq = static_cast<std::uint32_t>(body.req);
    if (!sess.inFlight || sess.seq != seq)
        return; // timed out (or from a previous session); drop

    sess.inFlight = false;
    recordServed(body, sess.firstRequest);
    sess.firstRequest = false;

    if (--sess.remaining == 0) {
        ++completedSessions_;
        if (running_)
            beginSession(idx - 1);
        return;
    }
    if (running_)
        think(idx - 1);
}

void
SessionFarm::deadlineExpired(const Deadline &d)
{
    sessions_[d.idx].inFlight = false;
    recordFailed();
    // The user gives up on this server: drop the connection and
    // reconnect (next session picks the next server round-robin).
    ++completedSessions_;
    if (running_)
        beginSession(d.idx);
}

SessionFarm::Saved
SessionFarm::save() const
{
    return {SessionFarmState(*this), recording(), connectDeadlines_.save(),
            requestDeadlines_.save()};
}

void
SessionFarm::restore(const Saved &s)
{
    SessionFarmState::operator=(s);
    restoreRecording(s.recording);
    connectDeadlines_.restore(s.connectDeadlines);
    requestDeadlines_.restore(s.requestDeadlines);
}

void
SessionFarm::registerWith(sim::SnapshotRegistry &reg)
{
    reg.attach(*this);
}

} // namespace performa::loadgen
