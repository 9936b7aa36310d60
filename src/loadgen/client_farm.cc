#include "loadgen/client_farm.hh"

#include <memory>

#include "press/messages.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace performa::loadgen {

ClientFarm::ClientFarm(sim::Simulation &s, net::Network &client_net,
                       std::vector<net::PortId> server_ports,
                       std::vector<net::PortId> client_ports,
                       WorkloadConfig cfg, LoadProfileSpec profile)
    : sim_(s), net_(client_net), serverPorts_(std::move(server_ports)),
      clientPorts_(std::move(client_ports)), cfg_(cfg),
      profile_(std::move(profile)), shaped_(!profile_.isDefault()),
      splitRng_(s.splitRng(kLoadgenRngSalt)),
      zipf_(cfg.numFiles, cfg.zipfAlpha),
      timeline_({.sliceWidth = sim::sec(1),
                 .reserveSlices = profile_.reserveSlices})
{
    if (serverPorts_.empty() || clientPorts_.empty())
        FATAL("ClientFarm needs at least one server and client port");
    served_.reserve(profile_.reserveSlices);
    failed_.reserve(profile_.reserveSlices);
    offered_.reserve(profile_.reserveSlices);
    for (net::PortId p : clientPorts_) {
        net_.setHandler(p,
            [this](net::Frame &&f) { onResponse(std::move(f)); });
    }
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
    ++totalOffered_;
    offered_.record(sim_.now());

    auto body = sim_.makePayload<press::ClientRequestBody>();
    body->req = id;
    body->file = file;
    body->replyPort = client;
    body->sentAt = sim_.now();

    net::Frame f;
    f.srcPort = client;
    f.dstPort = server;
    f.proto = net::Proto::Client;
    f.kind = press::ClientRequest;
    f.bytes = cfg_.requestBytes;
    f.payload = std::move(body);
    net_.send(std::move(f));

    // A single expiry at the completion deadline covers both the
    // connect (2 s) and the request (6 s) timeout: an unanswered
    // request is failed either way. Its event is armed only when it
    // reaches the head of the FIFO, but under the seq reserved here,
    // so it fires exactly where a per-request event would have.
    deadlines_.push_back(Deadline{sim_.now() + cfg_.requestTimeout,
                                  sim_.events().reserveSeq(), false});
    if (deadlines_.size() == 1)
        armHead();
}

void
ClientFarm::armHead()
{
    const Deadline &d = deadlines_.front();
    sim_.events().schedule(d.when, d.seq, [this] { expire(); });
}

void
ClientFarm::onResponse(net::Frame &&f)
{
    if (f.kind != press::ClientResponse || !f.payload)
        return;
    auto *body = f.payload.get<press::ClientResponseBody>();
    // Request nextReq_ - k is the k-th entry from the back of the FIFO.
    sim::RequestId age = nextReq_ - body->req;
    if (age == 0 || age > deadlines_.size())
        return; // already expired: the client hung up long ago
    Deadline &d = deadlines_[deadlines_.size() - age];
    if (d.answered)
        return;
    d.answered = true;
    --pending_;
    recordResponseLatency(timeline_, sim_.now(), *body);
    ++totalServed_;
    served_.record(sim_.now());
}

ClientFarm::Saved
ClientFarm::save() const
{
    Saved s;
    s.splitRng = splitRng_;
    s.running = running_;
    s.generation = generation_;
    s.nextReq = nextReq_;
    s.rrServer = rrServer_;
    s.rrClient = rrClient_;
    s.deadlines = deadlines_.clone();
    s.pending = pending_;
    s.served = served_;
    s.failed = failed_;
    s.offered = offered_;
    s.timeline = timeline_;
    s.totalServed = totalServed_;
    s.totalFailed = totalFailed_;
    s.totalOffered = totalOffered_;
    return s;
}

void
ClientFarm::restore(const Saved &s)
{
    splitRng_ = s.splitRng;
    running_ = s.running;
    generation_ = s.generation;
    nextReq_ = s.nextReq;
    rrServer_ = s.rrServer;
    rrClient_ = s.rrClient;
    // Refill in place: the ring keeps its warmed-up capacity, so a
    // fork does not allocate here.
    deadlines_.clear();
    deadlines_.reserve(s.deadlines.size());
    for (std::size_t i = 0; i < s.deadlines.size(); ++i)
        deadlines_.push_back(s.deadlines[i]);
    pending_ = s.pending;
    served_ = s.served;
    failed_ = s.failed;
    offered_ = s.offered;
    timeline_ = s.timeline;
    totalServed_ = s.totalServed;
    totalFailed_ = s.totalFailed;
    totalOffered_ = s.totalOffered;
    // The copies above carry capacity == size; re-reserve so recording
    // stays allocation-free for the rest of the forked run, as the
    // constructor arranged for a fresh one.
    served_.reserve(profile_.reserveSlices);
    failed_.reserve(profile_.reserveSlices);
    offered_.reserve(profile_.reserveSlices);
}

void
ClientFarm::registerWith(sim::SnapshotRegistry &reg)
{
    reg.attach(*this);
}

void
ClientFarm::expire()
{
    bool answered = deadlines_.front().answered;
    deadlines_.pop_front();
    // An answered request's deadline would fire as a no-op: drop it
    // now and arm the first unanswered one, under the seq it reserved.
    while (!deadlines_.empty() && deadlines_.front().answered)
        deadlines_.pop_front();
    if (!deadlines_.empty())
        armHead();
    if (answered)
        return; // completed in time
    --pending_;
    ++totalFailed_;
    failed_.record(sim_.now());
}

} // namespace performa::loadgen
