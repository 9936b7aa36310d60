#include "loadgen/session_farm.hh"

#include <random>

#include "press/messages.hh"
#include "sim/logging.hh"
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
    : sim_(s), net_(client_net), serverPorts_(std::move(server_ports)),
      clientPorts_(std::move(client_ports)), cfg_(cfg),
      profile_(std::move(profile)),
      rng_(s.splitRng(kLoadgenRngSalt)),
      zipf_(cfg.numFiles, cfg.zipfAlpha),
      timeline_({.sliceWidth = sim::sec(1),
                 .reserveSlices = profile_.reserveSlices})
{
    if (serverPorts_.empty() || clientPorts_.empty())
        FATAL("SessionFarm needs at least one server and client port");
    std::size_t n = profile_.sessionCount
                        ? profile_.sessionCount
                        : derivedSessionCount(cfg_, profile_);
    sessions_.resize(n);
    served_.reserve(profile_.reserveSlices);
    failed_.reserve(profile_.reserveSlices);
    offered_.reserve(profile_.reserveSlices);
    for (net::PortId p : clientPorts_) {
        net_.setHandler(p,
            [this](net::Frame &&f) { onResponse(std::move(f)); });
    }
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
    // and pending expiries no-ops.
    for (auto &sess : sessions_) {
        if (sess.inFlight) {
            sim_.events().cancel(sess.expiry);
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
    sess.sentAt = sim_.now();
    sess.inFlight = true;
    ++sess.seq;

    sim::FileId file = static_cast<sim::FileId>(zipf_.sample(rng_));
    net::PortId client = clientPorts_[idx % clientPorts_.size()];

    ++totalOffered_;
    offered_.record(sim_.now());

    auto body = sim_.makePayload<press::ClientRequestBody>();
    body->req = encodeReq(idx, sess.seq);
    body->file = file;
    body->replyPort = client;
    body->sentAt = sim_.now();

    net::Frame f;
    f.srcPort = client;
    f.dstPort = serverPorts_[sess.server];
    f.proto = net::Proto::Client;
    f.kind = press::ClientRequest;
    f.bytes = cfg_.requestBytes;
    f.payload = std::move(body);
    net_.send(std::move(f));

    // First request on a connection pays the connect timeout; later
    // ones reuse the connection and get the request timeout.
    sim::Tick deadline = sess.firstRequest
                             ? cfg_.connectTimeout
                             : cfg_.requestTimeout;
    std::uint32_t seq = sess.seq;
    sess.expiry = sim_.scheduleIn(
        deadline, [this, idx, seq] { expire(idx, seq); });
}

void
SessionFarm::onResponse(net::Frame &&f)
{
    if (f.kind != press::ClientResponse || !f.payload)
        return;
    auto *body = f.payload.get<press::ClientResponseBody>();
    std::size_t idx = static_cast<std::size_t>(body->req >> 32);
    if (idx == 0 || idx > sessions_.size())
        return;
    Session &sess = sessions_[idx - 1];
    std::uint32_t seq = static_cast<std::uint32_t>(body->req);
    if (!sess.inFlight || sess.seq != seq)
        return; // timed out (or from a previous session); drop

    sim_.events().cancel(sess.expiry);
    sess.inFlight = false;

    recordResponseLatency(timeline_, sim_.now(), *body,
                          sess.firstRequest);
    sess.firstRequest = false;
    ++totalServed_;
    served_.record(sim_.now());

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
SessionFarm::expire(std::size_t idx, std::uint32_t seq)
{
    Session &sess = sessions_[idx];
    if (!sess.inFlight || sess.seq != seq)
        return; // answered in time
    sess.inFlight = false;
    ++totalFailed_;
    failed_.record(sim_.now());
    // The user gives up on this server: drop the connection and
    // reconnect (next session picks the next server round-robin).
    ++completedSessions_;
    if (running_)
        beginSession(idx);
}

SessionFarm::Saved
SessionFarm::save() const
{
    Saved s;
    s.rng = rng_;
    s.running = running_;
    s.generation = generation_;
    s.rrServer = rrServer_;
    s.sessions = sessions_;
    s.served = served_;
    s.failed = failed_;
    s.offered = offered_;
    s.timeline = timeline_;
    s.totalServed = totalServed_;
    s.totalFailed = totalFailed_;
    s.totalOffered = totalOffered_;
    s.totalAbandoned = totalAbandoned_;
    s.completedSessions = completedSessions_;
    return s;
}

void
SessionFarm::restore(const Saved &s)
{
    rng_ = s.rng;
    running_ = s.running;
    generation_ = s.generation;
    rrServer_ = s.rrServer;
    sessions_ = s.sessions;
    served_ = s.served;
    failed_ = s.failed;
    offered_ = s.offered;
    timeline_ = s.timeline;
    totalServed_ = s.totalServed;
    totalFailed_ = s.totalFailed;
    totalOffered_ = s.totalOffered;
    totalAbandoned_ = s.totalAbandoned;
    completedSessions_ = s.completedSessions;
    // Re-reserve series capacity lost by the copy so steady-state
    // recording stays allocation-free after a fork.
    served_.reserve(profile_.reserveSlices);
    failed_.reserve(profile_.reserveSlices);
    offered_.reserve(profile_.reserveSlices);
}

void
SessionFarm::registerWith(sim::SnapshotRegistry &reg)
{
    reg.attach(*this);
}

} // namespace performa::loadgen
