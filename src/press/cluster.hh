/**
 * @file
 * Builds one complete PRESS deployment: the intra-cluster fabric, the
 * (never-faulted) client network, the nodes, one communication stack
 * per node matching the chosen PRESS version, and the server
 * processes — the simulated equivalent of the paper's 4-node
 * cLAN-connected testbed.
 */

#ifndef PERFORMA_PRESS_CLUSTER_HH
#define PERFORMA_PRESS_CLUSTER_HH

#include <memory>
#include <vector>

#include "net/network.hh"
#include "os/node.hh"
#include "press/config.hh"
#include "press/markers.hh"
#include "press/server.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"

namespace performa::press {

/** Deployment-level configuration. */
struct ClusterConfig
{
    PressConfig press;
    net::NetworkConfig intraNet;
    net::NetworkConfig clientNet;
    osim::NodeConfig node;
    std::uint32_t clientMachines = 4;
};

/**
 * The assembled testbed. Owns everything except the Simulation.
 */
class Cluster
{
  public:
    Cluster(sim::Simulation &s, ClusterConfig cfg);

    /** Cold-start every server (initial cluster formation). */
    void startAll();

    /**
     * Stripe the @p hot_files most popular files across the caches
     * and directories, skipping the hours-long warm-up the real
     * system would need. Every server's directory and cache tables
     * are sized for @p hot_files ids here, once.
     */
    void prewarm(std::size_t hot_files);

    /**
     * Operator intervention: restart every living server process with
     * a clean state so the cluster re-forms ("return to normal
     * operation thus requires the intervention of an administrator").
     */
    void operatorReset();

    std::uint32_t numNodes() const { return cfg_.press.numNodes; }
    osim::Node &node(sim::NodeId i) { return *nodes_.at(i); }
    Server &server(sim::NodeId i) { return *servers_.at(i); }
    net::Network &intraNet() { return *intraNet_; }
    net::Network &clientNet() { return *clientNet_; }
    const ClusterConfig &config() const { return cfg_; }

    /** The run's marker log: servers and the fault injector append. */
    MarkerLog &markers() { return markers_; }
    const MarkerLog &markers() const { return markers_; }

    /** Client-network ports of the servers (DNS round-robin targets). */
    const std::vector<net::PortId> &serverClientPorts() const
    {
        return serverClientPorts_;
    }

    /** Client-network ports reserved for the client machines. */
    const std::vector<net::PortId> &clientMachinePorts() const
    {
        return clientMachinePorts_;
    }

    /**
     * @return true when the union of live servers no longer forms one
     * cooperating cluster (somebody's member set excludes a live,
     * serving node).
     */
    bool splintered() const;

    /**
     * Attach every mutable component of the testbed to @p reg, in
     * deterministic bottom-up order (fabrics, then per node: OS state,
     * comm endpoint, server; then the marker log). Load
     * generators and the Simulation core register themselves
     * separately.
     */
    void registerWith(sim::SnapshotRegistry &reg);

  private:
    sim::Simulation &sim_;
    ClusterConfig cfg_;
    std::unique_ptr<net::Network> intraNet_;
    std::unique_ptr<net::Network> clientNet_;
    MarkerLog markers_;
    std::vector<std::unique_ptr<osim::Node>> nodes_;
    std::vector<std::unique_ptr<Server>> servers_;
    std::vector<net::PortId> serverClientPorts_;
    std::vector<net::PortId> clientMachinePorts_;
};

} // namespace performa::press

#endif // PERFORMA_PRESS_CLUSTER_HH
