/**
 * @file
 * The paper's testbed is 4 nodes, but the library must generalize:
 * clusters of other sizes form, serve, and reconfigure correctly.
 */

#include <gtest/gtest.h>

#include "faults/injector.hh"
#include "press/cluster.hh"
#include "sim/simulation.hh"
#include "loadgen/client_farm.hh"

using namespace performa;
using namespace performa::sim;

namespace {

struct Sized
{
    Simulation s{31};
    press::Cluster cluster;
    loadgen::ClientFarm farm;
    fault::Injector injector;

    explicit Sized(std::uint32_t nodes, press::Version v, double rate)
        : cluster(s, makeCfg(nodes, v)),
          farm(s, cluster.clientNet(), cluster.serverClientPorts(),
               cluster.clientMachinePorts(), makeWl(rate)),
          injector(s, cluster)
    {
        cluster.startAll();
        s.runUntil(sec(1));
        cluster.prewarm(10000);
        farm.start();
    }

    static press::ClusterConfig
    makeCfg(std::uint32_t nodes, press::Version v)
    {
        press::ClusterConfig cfg;
        cfg.press.version = v;
        cfg.press.numNodes = nodes;
        return cfg;
    }

    static loadgen::WorkloadConfig
    makeWl(double rate)
    {
        loadgen::WorkloadConfig cfg;
        cfg.requestRate = rate;
        cfg.numFiles = 10000;
        return cfg;
    }
};

} // namespace

class ClusterSizes : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(ClusterSizes, FormsAndServes)
{
    std::uint32_t n = GetParam();
    Sized w(n, press::Version::ViaPress0, 800);
    for (std::uint32_t i = 0; i < n; ++i)
        EXPECT_EQ(w.cluster.server(i).members().size(), n) << i;
    w.s.runUntil(sec(15));
    double rate = w.farm.served().meanRate(sec(5), sec(15));
    EXPECT_NEAR(rate, 800, 80);
}

TEST_P(ClusterSizes, SurvivesACrashAndRejoin)
{
    std::uint32_t n = GetParam();
    Sized w(n, press::Version::ViaPress3, 600);
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::NodeCrash;
    spec.target = n - 1;
    spec.injectAt = sec(5);
    spec.duration = sec(20);
    w.injector.schedule(spec);
    w.s.runUntil(sec(10));
    EXPECT_EQ(w.cluster.server(0).members().size(), n - 1);
    w.s.runUntil(sec(60));
    EXPECT_FALSE(w.cluster.splintered());
    EXPECT_EQ(w.cluster.server(n - 1).members().size(), n);
}

TEST_P(ClusterSizes, NodeIdIsItsPortOnBothNetworks)
{
    // Node i owns port i on both networks: once nodes 0..i crashed,
    // exactly ports 0..i are dark. The client machines come next.
    std::uint32_t n = GetParam();
    Simulation s{31};
    press::Cluster c(s, Sized::makeCfg(n, press::Version::TcpPress));
    EXPECT_EQ(c.intraNet().numPorts(), n);
    for (std::uint32_t j = 0; j < c.config().clientMachines; ++j)
        EXPECT_EQ(c.clientMachinePorts().at(j), n + j);
    for (std::uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(c.serverClientPorts().at(i), i);
        c.node(i).crash(sec(1));
        for (std::uint32_t p = 0; p < n; ++p) {
            EXPECT_EQ(c.intraNet().portUp(p), p > i) << i;
            EXPECT_EQ(c.clientNet().portUp(p), p > i) << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClusterSizes,
                         ::testing::Values(2u, 3u, 6u, 8u));

TEST(ClusterSizes, HeartbeatRingScalesWithMembership)
{
    // 6-node heartbeat ring: a kernel-memory fault on one node is
    // detected by its ring successor and the cluster splinters 5+1.
    Sized w(6, press::Version::TcpPressHb, 800);
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::KernelMemAlloc;
    spec.target = 4;
    spec.injectAt = sec(5);
    spec.duration = sec(40);
    w.injector.schedule(spec);
    w.s.runUntil(sec(40));
    EXPECT_TRUE(w.cluster.splintered());
    EXPECT_EQ(w.cluster.server(0).members().size(), 5u);
    EXPECT_EQ(w.cluster.server(4).members().size(), 1u);
}
