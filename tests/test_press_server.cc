/**
 * @file
 * Integration tests for the PRESS server over both substrates:
 * cluster formation, locality-conscious dispatch, cooperative
 * caching, membership reconfiguration, rejoin protocols, heartbeats,
 * fail-fast, and the operator reset.
 *
 * These drive small, fast deployments (reduced load, short runs);
 * the full-scale behaviour matrix lives in test_fault_matrix.cc.
 */

#include <gtest/gtest.h>

#include "faults/injector.hh"
#include "press/cluster.hh"
#include "sim/simulation.hh"
#include "loadgen/client_farm.hh"

using namespace performa;
using namespace performa::sim;

namespace {

struct Deployment
{
    Simulation s{7};
    press::Cluster cluster;
    loadgen::ClientFarm farm;
    fault::Injector injector;

    explicit Deployment(press::Version v, double rate = 1500)
        : cluster(s, makeClusterCfg(v)),
          farm(s, cluster.clientNet(), cluster.serverClientPorts(),
               cluster.clientMachinePorts(), makeWorkloadCfg(rate)),
          injector(s, cluster)
    {
        cluster.startAll();
        s.runUntil(sec(1));
        cluster.prewarm(20000);
    }

    static press::ClusterConfig
    makeClusterCfg(press::Version v)
    {
        press::ClusterConfig cfg;
        cfg.press.version = v;
        return cfg;
    }

    static loadgen::WorkloadConfig
    makeWorkloadCfg(double rate)
    {
        loadgen::WorkloadConfig cfg;
        cfg.requestRate = rate;
        cfg.numFiles = 20000;
        return cfg;
    }

    double
    runAndMeasure(Tick from, Tick to)
    {
        farm.start();
        s.runUntil(to);
        return farm.served().meanRate(from, to);
    }
};

} // namespace

TEST(PressCluster, ColdStartFormsFullMembership)
{
    for (press::Version v : press::allVersions) {
        Deployment d(v);
        for (std::uint32_t i = 0; i < d.cluster.numNodes(); ++i)
            EXPECT_EQ(d.cluster.server(i).members().size(), 4u)
                << press::versionName(v) << " node " << i;
        EXPECT_FALSE(d.cluster.splintered());
    }
}

TEST(PressCluster, ServesRequestsUnderModestLoad)
{
    Deployment d(press::Version::TcpPress);
    double tput = d.runAndMeasure(sec(5), sec(20));
    // Open-loop 1500 req/s well below capacity: all served.
    EXPECT_NEAR(tput, 1500, 100);
    EXPECT_LT(d.farm.totalFailed(), 30u);
}

TEST(PressCluster, PrewarmPopulatesCachesAndDirectory)
{
    Deployment d(press::Version::ViaPress0);
    std::size_t total = 0;
    for (std::uint32_t i = 0; i < 4; ++i)
        total += d.cluster.server(i).cachedFiles();
    EXPECT_EQ(total, 20000u);
}

TEST(PressCluster, PrewarmSizesTheCacheTablesOnce)
{
    // prewarm() sizes every cache's link arrays for exactly the
    // working set, and a restarted process starts at that size.
    Deployment d(press::Version::TcpPress);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(d.cluster.server(i).cacheTableSize(), 20000u);
    d.farm.start();
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::AppCrash;
    spec.target = 3;
    spec.injectAt = sec(5);
    d.injector.schedule(spec);
    d.s.runUntil(sec(40));
    ASSERT_EQ(d.cluster.markers().count(press::MarkerKind::Started, sec(5)),
              1u); // node 3's restart
    ASSERT_EQ(d.cluster.server(3).members().size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(d.cluster.server(i).cacheTableSize(), 20000u);
}

TEST(PressCluster, AppCrashExcludesAndRejoins)
{
    for (press::Version v :
         {press::Version::TcpPress, press::Version::ViaPress0}) {
        Deployment d(v);
        d.farm.start();
        fault::FaultSpec spec;
        spec.kind = fault::FaultKind::AppCrash;
        spec.target = 3;
        spec.injectAt = sec(5);
        d.injector.schedule(spec);
        d.s.runUntil(sec(8));
        // The three survivors excluded node 3.
        for (std::uint32_t i = 0; i < 3; ++i)
            EXPECT_EQ(d.cluster.server(i).members().size(), 3u)
                << press::versionName(v);
        // Daemon restarts it (10 s) and it rejoins.
        d.s.runUntil(sec(40));
        for (std::uint32_t i = 0; i < 4; ++i)
            EXPECT_EQ(d.cluster.server(i).members().size(), 4u)
                << press::versionName(v);
        EXPECT_FALSE(d.cluster.splintered());
    }
}

TEST(PressCluster, LinkFaultSplintersViaButNotTcp)
{
    {
        Deployment d(press::Version::ViaPress3);
        d.farm.start();
        fault::FaultSpec spec;
        spec.kind = fault::FaultKind::LinkDown;
        spec.target = 3;
        spec.injectAt = sec(5);
        spec.duration = sec(20);
        d.injector.schedule(spec);
        d.s.runUntil(sec(10));
        EXPECT_TRUE(d.cluster.splintered());
        EXPECT_EQ(d.cluster.server(3).members().size(), 1u);
        // After the link returns: NO re-merge.
        d.s.runUntil(sec(60));
        EXPECT_TRUE(d.cluster.splintered());
    }
    {
        Deployment d(press::Version::TcpPress);
        d.farm.start();
        fault::FaultSpec spec;
        spec.kind = fault::FaultKind::LinkDown;
        spec.target = 3;
        spec.injectAt = sec(5);
        spec.duration = sec(20);
        d.injector.schedule(spec);
        d.s.runUntil(sec(10));
        EXPECT_FALSE(d.cluster.splintered()); // still retransmitting
        d.s.runUntil(sec(120));
        EXPECT_FALSE(d.cluster.splintered()); // resumed, intact
    }
}

TEST(PressCluster, HeartbeatDetectsSilentFaultIn15s)
{
    Deployment d(press::Version::TcpPressHb);
    d.farm.start();
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::KernelMemAlloc;
    spec.target = 3;
    spec.injectAt = sec(5);
    spec.duration = sec(30);
    d.injector.schedule(spec);
    d.s.runUntil(sec(19)); // < inject + 15s
    EXPECT_FALSE(d.cluster.splintered());
    d.s.runUntil(sec(30)); // detection threshold passed
    EXPECT_TRUE(d.cluster.splintered());
}

TEST(PressCluster, PlainTcpRidesOutKernelMemFault)
{
    Deployment d(press::Version::TcpPress);
    d.farm.start();
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::KernelMemAlloc;
    spec.target = 3;
    spec.injectAt = sec(5);
    spec.duration = sec(20);
    d.injector.schedule(spec);
    d.s.runUntil(sec(90));
    EXPECT_FALSE(d.cluster.splintered());
    // Served requests resumed after the fault.
    double after = d.farm.served().meanRate(sec(60), sec(90));
    EXPECT_GT(after, 1200);
}

TEST(PressCluster, NullPointerFaultRestartsOneNodeOnTcp)
{
    Deployment d(press::Version::TcpPress);
    d.farm.start();
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::BadParamNull;
    spec.target = 3;
    spec.injectAt = sec(5);
    d.injector.schedule(spec);
    d.s.runUntil(sec(8));
    EXPECT_FALSE(d.cluster.server(3).alive());
    EXPECT_TRUE(d.cluster.server(2).alive());
    d.s.runUntil(sec(60));
    EXPECT_EQ(d.cluster.server(3).members().size(), 4u); // rejoined
}

TEST(PressCluster, BadParamFaultFailsFastExactlyOnce)
{
    // The fault corrupts one send call: the restarted process sends
    // cleanly, so the node fail-fasts exactly once and stays up.
    Deployment d(press::Version::TcpPress);
    d.farm.start();
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::BadParamNull;
    spec.target = 3;
    spec.injectAt = sec(5);
    d.injector.schedule(spec);
    d.s.runUntil(sec(60));
    int fail_fasts = 0;
    for (const press::Marker &m : d.cluster.markers().all())
        if (m.kind == press::MarkerKind::FailFast) {
            EXPECT_EQ(m.node, 3u);
            ++fail_fasts;
        }
    EXPECT_EQ(fail_fasts, 1);
    EXPECT_TRUE(d.cluster.server(3).alive());
    EXPECT_FALSE(d.cluster.server(3).badParams().faulty());
}

TEST(PressCluster, NullPointerFaultRestartsTwoNodesOnRdma)
{
    Deployment d(press::Version::ViaPress5);
    d.farm.start();
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::BadParamNull;
    spec.target = 3;
    spec.injectAt = sec(5);
    d.injector.schedule(spec);
    d.s.runUntil(sec(8));
    // The sender and the remote end of the write both terminated.
    int dead = 0;
    for (std::uint32_t i = 0; i < 4; ++i)
        dead += d.cluster.server(i).alive() ? 0 : 1;
    EXPECT_EQ(dead, 2);
    d.s.runUntil(sec(60));
    EXPECT_FALSE(d.cluster.splintered()); // both rejoined
}

TEST(PressCluster, OperatorResetReformsSplinteredCluster)
{
    Deployment d(press::Version::ViaPress0);
    d.farm.start();
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::LinkDown;
    spec.target = 3;
    spec.injectAt = sec(5);
    spec.duration = sec(10);
    d.injector.schedule(spec);
    d.s.runUntil(sec(30));
    ASSERT_TRUE(d.cluster.splintered());
    d.cluster.operatorReset();
    d.s.runUntil(sec(40));
    EXPECT_FALSE(d.cluster.splintered());
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(d.cluster.server(i).members().size(), 4u);
}

TEST(PressCluster, AppHangStallsAndResumes)
{
    Deployment d(press::Version::ViaPress0);
    d.farm.start();
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::AppHang;
    spec.target = 3;
    spec.injectAt = sec(5);
    spec.duration = sec(15);
    d.injector.schedule(spec);
    d.s.runUntil(sec(60));
    EXPECT_FALSE(d.cluster.splintered()); // connections survived
    double after = d.farm.served().meanRate(sec(30), sec(60));
    EXPECT_GT(after, 1200);
}

TEST(PressCluster, NodeCrashRejoinsCleanlyOnVia)
{
    Deployment d(press::Version::ViaPress3);
    d.farm.start();
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::NodeCrash;
    spec.target = 3;
    spec.injectAt = sec(5);
    spec.duration = sec(20);
    d.injector.schedule(spec);
    d.s.runUntil(sec(10));
    EXPECT_EQ(d.cluster.server(0).members().size(), 3u);
    d.s.runUntil(sec(60)); // reboot at 25, service at 30, rejoin
    EXPECT_FALSE(d.cluster.splintered());
    EXPECT_EQ(d.cluster.server(3).members().size(), 4u);
}

TEST(PressCluster, CacheUpdatesPropagateToPeersDirectories)
{
    Deployment d(press::Version::TcpPress, 500);
    d.farm.start();
    d.s.runUntil(sec(30));
    // Under load with an unwarmed tail of the file set, servers cache
    // new files and broadcast; peers must be forwarding rather than
    // re-reading from disk, so most requests are served quickly.
    EXPECT_GT(d.farm.totalServed(),
              d.farm.totalOffered() * 95 / 100);
}

TEST(PressCluster, SplinterDegradesButDoesNotStopService)
{
    Deployment d(press::Version::ViaPress5, 3000);
    d.farm.start();
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::LinkDown;
    spec.target = 3;
    spec.injectAt = sec(5);
    spec.duration = sec(60);
    d.injector.schedule(spec);
    d.s.runUntil(sec(60));
    double during = d.farm.served().meanRate(sec(20), sec(60));
    EXPECT_GT(during, 1500); // degraded but alive (3+1 serving)
}
