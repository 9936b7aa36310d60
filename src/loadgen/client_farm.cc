#include "loadgen/client_farm.hh"

#include "press/messages.hh"
#include "sim/snapshot.hh"

namespace performa::loadgen {

ClientFarm::ClientFarm(sim::Simulation &s, net::Network &client_net,
                       std::vector<net::PortId> server_ports,
                       std::vector<net::PortId> client_ports,
                       WorkloadConfig cfg, LoadProfileSpec profile)
    : LoadGenerator(s, client_net, std::move(server_ports),
                    std::move(client_ports), cfg, std::move(profile)),
      ClientFarmState(s.splitRng(kLoadgenRngSalt)),
      shaped_(!profile_.isDefault()), zipf_(cfg.numFiles, cfg.zipfAlpha),
      deadlines_(s.events(), *this, cfg.requestTimeout)
{
}

void
ClientFarm::start()
{
    if (running_)
        return;
    running_ = true;
    ++generation_;
    arrivalTick();
}

void
ClientFarm::stop()
{
    running_ = false;
    ++generation_;
}

void
ClientFarm::arrivalTick()
{
    if (!running_)
        return;
    issueRequest();
    double rate = cfg_.requestRate;
    if (shaped_)
        rate *= rateMultiplierAt(profile_, sim_.now());
    if (rate <= 0.0)
        rate = 1.0; // idle trough: crawl until the curve comes back
    sim::Tick mean = static_cast<sim::Tick>(1e6 / rate);
    std::uint64_t gen = generation_;
    sim_.scheduleIn(genRng().exponential(mean), [this, gen] {
        if (gen == generation_)
            arrivalTick();
    });
}

void
ClientFarm::issueRequest()
{
    sim::RequestId id = nextReq_++;
    sim::FileId file =
        static_cast<sim::FileId>(zipf_.sample(genRng()));

    // Round-robin DNS: clients keep hitting a node's address whether
    // or not the node is up.
    net::PortId server = serverPorts_[rrServer_];
    rrServer_ = (rrServer_ + 1) % serverPorts_.size();
    net::PortId client = clientPorts_[rrClient_];
    rrClient_ = (rrClient_ + 1) % clientPorts_.size();

    ++pending_;
    offer(id, file, client, server);

    // The expiry's event is armed only when the request reaches the
    // head of the FIFO, but under the seq reserved here, so it fires
    // exactly where a per-request event would have.
    deadlines_.push(false);
}

void
ClientFarm::onResponse(const press::ClientResponseBody &body)
{
    // Request nextReq_ - k is the k-th entry from the back of the FIFO.
    sim::RequestId age = nextReq_ - body.req;
    if (age == 0 || age > deadlines_.size())
        return; // already expired: the client hung up long ago
    bool &answered = deadlines_[deadlines_.size() - age];
    if (answered)
        return;
    answered = true;
    --pending_;
    recordServed(body);
}

ClientFarm::Saved
ClientFarm::save() const
{
    return {ClientFarmState(*this), recording(), deadlines_.save()};
}

void
ClientFarm::restore(const Saved &s)
{
    ClientFarmState::operator=(s);
    restoreRecording(s.recording);
    deadlines_.restore(s.deadlines);
}

void
ClientFarm::registerWith(sim::SnapshotRegistry &reg)
{
    reg.attach(*this);
}

void
ClientFarm::deadlineExpired(const bool &)
{
    --pending_;
    recordFailed();
}

} // namespace performa::loadgen
