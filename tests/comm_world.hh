/**
 * @file
 * The test world the intra-cluster stack tests share: n nodes on one
 * intra-cluster network, each running one endpoint of stack @p Comm
 * whose callbacks record everything they see.
 */

#ifndef PERFORMA_TESTS_COMM_WORLD_HH
#define PERFORMA_TESTS_COMM_WORLD_HH

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/network.hh"
#include "os/node.hh"
#include "proto/comm.hh"
#include "sim/simulation.hh"

template <typename Comm>
struct CommEndpoint
{
    std::unique_ptr<performa::osim::Node> node;
    std::unique_ptr<Comm> comm;
    std::vector<performa::proto::AppMessage> received;
    std::vector<performa::sim::NodeId> broken;
    std::vector<performa::sim::NodeId> connected;
    std::vector<performa::sim::NodeId> connectFailed;
    std::vector<std::string> fatal;
    int sendReady = 0;
    std::vector<std::uint32_t> datagrams;
    /** Consume each delivered message (returns a VIA credit). */
    bool autoCredit = true;
};

template <typename Comm>
struct CommWorld
{
    using Config = std::decay_t<decltype(std::declval<Comm>().config())>;

    performa::sim::Simulation s{1};
    performa::net::Network intra{s};
    performa::net::Network client{s};
    std::vector<CommEndpoint<Comm>> eps;

    explicit CommWorld(int n = 2, Config cfg = {},
                       performa::osim::NodeConfig node_cfg = {})
    {
        using performa::sim::NodeId;
        eps.resize(static_cast<std::size_t>(n));
        for (NodeId id = 0; id < eps.size(); ++id) {
            auto &e = eps[id];
            e.node = std::make_unique<performa::osim::Node>(
                s, id, intra, client, node_cfg);
            e.comm = std::make_unique<Comm>(*e.node, cfg);
            performa::proto::CommCallbacks cbs;
            cbs.onMessage = [&e](NodeId peer,
                                 performa::proto::AppMessage &&m) {
                e.received.push_back(std::move(m));
                if (e.autoCredit)
                    e.comm->consumed(peer);
            };
            cbs.onPeerBroken = [&e](NodeId p, performa::proto::BreakReason) {
                e.broken.push_back(p);
            };
            cbs.onPeerConnected = [&e](NodeId p) {
                e.connected.push_back(p);
            };
            cbs.onConnectFailed = [&e](NodeId p) {
                e.connectFailed.push_back(p);
            };
            cbs.onSendReady = [&e] { ++e.sendReady; };
            cbs.onFatalError = [&e](const std::string &r) {
                e.fatal.push_back(r);
            };
            cbs.onDatagram = [&e](NodeId, std::uint32_t kind,
                                  performa::sim::RcAny) {
                e.datagrams.push_back(kind);
            };
            e.comm->setCallbacks(std::move(cbs));
            e.comm->start();
        }
    }

    performa::proto::AppMessage
    msg(std::uint64_t bytes, std::uint32_t type = 1)
    {
        performa::proto::AppMessage m;
        m.type = type;
        m.bytes = bytes;
        return m;
    }
};

#endif // PERFORMA_TESTS_COMM_WORLD_HH
