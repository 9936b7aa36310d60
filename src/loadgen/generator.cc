#include "loadgen/generator.hh"

#include "loadgen/client_farm.hh"
#include "loadgen/session_farm.hh"
#include "press/messages.hh"
#include "sim/logging.hh"

namespace performa::loadgen {

LoadGenerator::LoadGenerator(sim::Simulation &s, net::Network &client_net,
                             std::vector<net::PortId> server_ports,
                             std::vector<net::PortId> client_ports,
                             WorkloadConfig cfg, LoadProfileSpec profile)
    : sim_(s), net_(client_net), serverPorts_(std::move(server_ports)),
      clientPorts_(std::move(client_ports)), cfg_(cfg),
      profile_(std::move(profile))
{
    if (serverPorts_.empty() || clientPorts_.empty())
        FATAL("a load generator needs at least one server and client port");
    rec_.timeline = sim::StageLatencyTimeline(profile_.reserveSlices);
    reserveSeries();
    for (net::PortId p : clientPorts_) {
        net_.setHandler(p, [this](net::Frame &&f) {
            if (f.kind == press::ClientResponse && f.payload)
                onResponse(*f.payload.get<press::ClientResponseBody>());
        });
    }
}

void
LoadGenerator::offer(sim::RequestId id, sim::FileId file,
                     net::PortId client, net::PortId server)
{
    ++rec_.totalOffered;
    rec_.offered.record(sim_.now());

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
}

void
LoadGenerator::restoreRecording(const Recording &r)
{
    rec_ = r;
    reserveSeries();
}

void
LoadGenerator::reserveSeries()
{
    rec_.served.reserve(profile_.reserveSlices);
    rec_.failed.reserve(profile_.reserveSlices);
    rec_.offered.reserve(profile_.reserveSlices);
}

std::unique_ptr<LoadGenerator>
makeLoadGenerator(sim::Simulation &sim, net::Network &client_net,
                  std::vector<net::PortId> server_ports,
                  std::vector<net::PortId> client_ports,
                  const WorkloadConfig &cfg,
                  const LoadProfileSpec &profile)
{
    if (profile.sessions)
        return std::make_unique<SessionFarm>(
            sim, client_net, std::move(server_ports),
            std::move(client_ports), cfg, profile);
    return std::make_unique<ClientFarm>(
        sim, client_net, std::move(server_ports),
        std::move(client_ports), cfg, profile);
}

void
recordResponseLatency(sim::StageLatencyTimeline &tl, sim::Tick now,
                      const press::ClientResponseBody &body)
{
    tl.record(now, now - body.sentAt);
}

} // namespace performa::loadgen
