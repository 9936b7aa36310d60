/**
 * @file
 * Tests for the two paper-suggested extensions: the robust membership
 * protocol (Section 6.2: repair incorrect splintering) and static
 * cache pinning (Section 7: pre-allocate all resources).
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
    Simulation s{17};
    press::Cluster cluster;
    loadgen::ClientFarm farm;
    fault::Injector injector;

    Deployment(press::Version v, bool robust, bool static_pin)
        : cluster(s, makeCfg(v, robust, static_pin)),
          farm(s, cluster.clientNet(), cluster.serverClientPorts(),
               cluster.clientMachinePorts(), makeWl()),
          injector(s, cluster)
    {
        cluster.startAll();
        s.runUntil(sec(1));
        // Leave a cold tail of the file set so cache inserts keep
        // happening during the run (pin pressure needs inserts).
        cluster.prewarm(20000);
        farm.start();
    }

    static press::ClusterConfig
    makeCfg(press::Version v, bool robust, bool static_pin)
    {
        press::ClusterConfig cfg;
        cfg.press.version = v;
        cfg.press.robustMembership = robust;
        cfg.press.staticPinning = static_pin;
        return cfg;
    }

    static loadgen::WorkloadConfig
    makeWl()
    {
        loadgen::WorkloadConfig cfg;
        cfg.requestRate = 1500;
        cfg.numFiles = 26000;
        return cfg;
    }

    void
    injectLinkFault(Tick at, Tick duration)
    {
        fault::FaultSpec spec;
        spec.kind = fault::FaultKind::LinkDown;
        spec.target = 3;
        spec.injectAt = at;
        spec.duration = duration;
        injector.schedule(spec);
    }
};

} // namespace

TEST(RobustMembership, RemergesViaClusterAfterLinkFault)
{
    Deployment d(press::Version::ViaPress0, /*robust=*/true,
                 /*static_pin=*/false);
    d.injectLinkFault(sec(5), sec(20));
    d.s.runUntil(sec(10));
    EXPECT_TRUE(d.cluster.splintered()); // fault still active
    // Link back at 25 s; the next probe (10 s period) re-merges.
    d.s.runUntil(sec(45));
    EXPECT_FALSE(d.cluster.splintered());
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(d.cluster.server(i).members().size(), 4u);
}

TEST(RobustMembership, PaperFaithfulClusterStaysSplintered)
{
    Deployment d(press::Version::ViaPress0, /*robust=*/false,
                 /*static_pin=*/false);
    d.injectLinkFault(sec(5), sec(20));
    d.s.runUntil(sec(60));
    EXPECT_TRUE(d.cluster.splintered()); // no re-merge, ever
}

TEST(RobustMembership, RemergesHeartbeatFalsePositive)
{
    Deployment d(press::Version::TcpPressHb, /*robust=*/true,
                 /*static_pin=*/false);
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::AppHang;
    spec.target = 3;
    spec.injectAt = sec(5);
    spec.duration = sec(25);
    d.injector.schedule(spec);
    d.s.runUntil(sec(25)); // HB false positive splinters
    EXPECT_EQ(d.cluster.server(0).members().size(), 3u);
    d.s.runUntil(sec(70)); // hang over at 30 s; probes re-merge
    EXPECT_FALSE(d.cluster.splintered());
}

TEST(RobustMembership, HealsTcpRejoinRace)
{
    Deployment d(press::Version::TcpPress, /*robust=*/true,
                 /*static_pin=*/false);
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::NodeCrash;
    spec.target = 3;
    spec.injectAt = sec(5);
    spec.duration = sec(120);
    d.injector.schedule(spec);
    // Rejoin race: the restarted node gives up around +20 s, peers
    // only exclude it on the first post-reboot retransmission; the
    // probe ticks then reconnect everyone.
    d.s.runUntil(sec(260));
    EXPECT_FALSE(d.cluster.splintered());
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(d.cluster.server(i).members().size(), 4u);
}

TEST(StaticPinning, CacheUnaffectedByPinExhaustion)
{
    Deployment dynamic(press::Version::ViaPress5, false, false);
    Deployment static_pin(press::Version::ViaPress5, false, true);

    for (Deployment *d : {&dynamic, &static_pin}) {
        fault::FaultSpec spec;
        spec.kind = fault::FaultKind::PinExhaustion;
        spec.target = 3;
        spec.injectAt = sec(5);
        spec.duration = sec(30);
        spec.pinLimitBytes = 32ull << 20;
        d->injector.schedule(spec);
    }
    std::size_t before_dyn = dynamic.cluster.server(3).cachedFiles();
    std::size_t before_sta = static_pin.cluster.server(3).cachedFiles();
    dynamic.s.runUntil(sec(30));
    static_pin.s.runUntil(sec(30));

    // The per-file pinning cache shed entries; the pre-pinned cache
    // did not.
    EXPECT_LT(dynamic.cluster.server(3).cachedFiles(), before_dyn);
    EXPECT_GE(static_pin.cluster.server(3).cachedFiles(), before_sta);
}

TEST(StaticPinning, ServesNormally)
{
    Deployment d(press::Version::ViaPress5, false, true);
    d.s.runUntil(sec(20));
    double tput = d.farm.served().meanRate(sec(5), sec(20));
    EXPECT_NEAR(tput, 1500, 100);
}

TEST(StaticPinning, PinsWholeCacheRegionUpFront)
{
    Deployment d(press::Version::ViaPress5, false, true);
    // 128 MB cache + communication buffers, on every node.
    EXPECT_GE(d.cluster.node(3).pins().pinned(), 128ull << 20);
}
