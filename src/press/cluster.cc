#include "press/cluster.hh"

#include <algorithm>
#include <set>

#include "proto/tcp.hh"
#include "proto/via.hh"
#include "sim/logging.hh"

namespace performa::press {

const char *
markerName(MarkerKind k)
{
    static const char *const names[] = { // MarkerKind order
        "inject",    "recover", "exclude", "member-up",
        "fail-fast", "give-up", "started"};
    return names[static_cast<int>(k)];
}

Cluster::Cluster(sim::Simulation &s, ClusterConfig cfg)
    : sim_(s), cfg_(std::move(cfg))
{
    intraNet_ = std::make_unique<net::Network>(sim_, cfg_.intraNet);
    clientNet_ = std::make_unique<net::Network>(sim_, cfg_.clientNet);

    const std::uint32_t n = cfg_.press.numNodes;

    // Nodes first: node i owns port i on both networks.
    for (std::uint32_t i = 0; i < n; ++i) {
        nodes_.push_back(std::make_unique<osim::Node>(
            sim_, i, *intraNet_, *clientNet_, cfg_.node));
        serverClientPorts_.push_back(i);
    }
    for (std::uint32_t i = 0; i < cfg_.clientMachines; ++i)
        clientMachinePorts_.push_back(clientNet_->addPort());

    for (std::uint32_t i = 0; i < n; ++i) {
        std::unique_ptr<proto::ClusterComm> stack;
        if (isVia(cfg_.press.version)) {
            stack = std::make_unique<proto::ViaComm>(
                *nodes_[i], viaConfigFor(cfg_.press.version));
        } else {
            stack = std::make_unique<proto::TcpComm>(
                *nodes_[i], tcpConfigFor(cfg_.press.version));
        }
        servers_.push_back(std::make_unique<Server>(
            *nodes_[i], cfg_.press, std::move(stack), markers_));
    }
}

void
Cluster::startAll()
{
    for (auto &srv : servers_)
        srv->markColdStart();
    for (auto &node : nodes_)
        node->startServiceNow();
}

void
Cluster::prewarm(std::size_t hot_files)
{
    const std::uint32_t n = cfg_.press.numNodes;
    std::size_t per_node =
        cfg_.press.cacheBytes / cfg_.press.fileBytes;
    std::size_t limit = std::min<std::size_t>(hot_files, per_node * n);
    for (auto &srv : servers_)
        srv->reserveFiles(hot_files);
    for (std::size_t f = 0; f < limit; ++f) {
        sim::NodeId owner = static_cast<sim::NodeId>(f % n);
        for (auto &srv : servers_)
            srv->prewarmFile(static_cast<sim::FileId>(f), owner);
    }
}

void
Cluster::operatorReset()
{
    for (auto &srv : servers_)
        srv->markColdStart();
    for (auto &node : nodes_)
        node->operatorRestartService();
}

void
Cluster::registerWith(sim::SnapshotRegistry &reg)
{
    reg.attach(*intraNet_);
    reg.attach(*clientNet_);
    for (std::uint32_t i = 0; i < cfg_.press.numNodes; ++i) {
        reg.attach(*nodes_[i]);
        proto::ClusterComm *comm = &servers_[i]->comm();
        if (auto *via = dynamic_cast<proto::ViaComm *>(comm))
            reg.attach(*via);
        else if (auto *tcp = dynamic_cast<proto::TcpComm *>(comm))
            reg.attach(*tcp);
        else
            PANIC("unknown comm endpoint type in snapshot registration");
        reg.attach(*servers_[i]);
    }
    reg.attach(markers_);
}

bool
Cluster::splintered() const
{
    // Collect the set of live, serving nodes.
    std::set<sim::NodeId> live;
    for (std::uint32_t i = 0; i < cfg_.press.numNodes; ++i) {
        if (nodes_[i]->up() && servers_[i]->alive() &&
            !servers_[i]->stoppedBySignal())
            live.insert(i);
    }
    for (sim::NodeId i : live) {
        for (sim::NodeId j : live) {
            if (!servers_[i]->members().count(j))
                return true;
        }
    }
    return false;
}

} // namespace performa::press
