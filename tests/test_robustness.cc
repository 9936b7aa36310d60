/**
 * @file
 * Robustness/failure-injection hardening: overlapping and compounding
 * faults must never wedge or crash the simulation, and the cluster
 * must keep serving (possibly degraded) or recover once the faults
 * clear. These are the cases the single-fault methodology does not
 * cover but a production harness must survive.
 */

#include <gtest/gtest.h>

#include "exp/report.hh"
#include "faults/injector.hh"
#include "press/cluster.hh"
#include "sim/simulation.hh"
#include "loadgen/client_farm.hh"

using namespace performa;
using namespace performa::sim;

namespace {

struct Storm
{
    Simulation s{23};
    press::Cluster cluster;
    loadgen::ClientFarm farm;
    fault::Injector injector;

    explicit Storm(press::Version v, bool robust = false)
        : cluster(s, makeCfg(v, robust)),
          farm(s, cluster.clientNet(), cluster.serverClientPorts(),
               cluster.clientMachinePorts(), makeWl()),
          injector(s, cluster)
    {
        cluster.startAll();
        s.runUntil(sec(1));
        cluster.prewarm(20000);
        farm.start();
    }

    static press::ClusterConfig
    makeCfg(press::Version v, bool robust)
    {
        press::ClusterConfig cfg;
        cfg.press.version = v;
        cfg.press.robustMembership = robust;
        return cfg;
    }

    static loadgen::WorkloadConfig
    makeWl()
    {
        loadgen::WorkloadConfig cfg;
        cfg.requestRate = 1500;
        cfg.numFiles = 24000;
        return cfg;
    }

    void
    inject(fault::FaultKind k, NodeId target, Tick at, Tick dur)
    {
        fault::FaultSpec spec;
        spec.kind = k;
        spec.target = target;
        spec.injectAt = at;
        spec.duration = dur;
        injector.schedule(spec);
    }

    /** The cluster serves at a healthy clip over [from, to). */
    void
    expectServing(Tick from, Tick to, double min_rate)
    {
        double r = farm.served().meanRate(from, to);
        EXPECT_GT(r, min_rate) << "cluster not serving";
    }
};

} // namespace

TEST(Robustness, CrashWhileFrozen)
{
    Storm w(press::Version::ViaPress0);
    w.inject(fault::FaultKind::NodeFreeze, 3, sec(5), sec(60));
    w.inject(fault::FaultKind::NodeCrash, 3, sec(15), sec(20));
    w.s.runUntil(sec(120));
    EXPECT_TRUE(w.cluster.node(3).up());
    w.expectServing(sec(90), sec(120), 1200);
}

TEST(Robustness, KillDuringHang)
{
    Storm w(press::Version::TcpPress);
    w.inject(fault::FaultKind::AppHang, 2, sec(5), sec(40));
    w.inject(fault::FaultKind::AppCrash, 2, sec(10), 0);
    w.s.runUntil(sec(120));
    EXPECT_TRUE(w.cluster.server(2).alive());
    w.expectServing(sec(90), sec(120), 1200);
}

TEST(Robustness, TwoSimultaneousNodeCrashes)
{
    Storm w(press::Version::ViaPress5);
    w.inject(fault::FaultKind::NodeCrash, 2, sec(5), sec(30));
    w.inject(fault::FaultKind::NodeCrash, 3, sec(5), sec(30));
    w.s.runUntil(sec(20));
    // Two survivors keep cooperating.
    EXPECT_EQ(w.cluster.server(0).members().size(), 2u);
    w.s.runUntil(sec(120));
    EXPECT_FALSE(w.cluster.splintered());
    w.expectServing(sec(90), sec(120), 1200);
}

TEST(Robustness, FaultOnTheLowestIdNodeNeedsOperator)
{
    // Node 0 answers rejoin requests. Crashing it while another node
    // restarts leaves the member views diverged (the joiner's
    // requests go unanswered while node 0 is still believed to be the
    // lowest active member) — the paper's point that heartbeats need
    // a rigorous membership algorithm. The operator reset must always
    // put the cluster back together.
    Storm w(press::Version::TcpPressHb);
    w.inject(fault::FaultKind::NodeCrash, 0, sec(5), sec(30));
    w.inject(fault::FaultKind::AppCrash, 3, sec(20), 0);
    w.s.runUntil(sec(150));
    w.cluster.operatorReset();
    w.s.runUntil(sec(200));
    EXPECT_FALSE(w.cluster.splintered());
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(w.cluster.server(i).members().size(), 4u) << i;
    w.expectServing(sec(170), sec(200), 1200);
}

TEST(Robustness, FaultOnTheLowestIdNodeSelfHealsWithRobustMembership)
{
    // Same compound fault, but with the Section 6.2 extension the
    // diverged views repair themselves without an operator.
    Storm w(press::Version::TcpPressHb, /*robust=*/true);
    w.inject(fault::FaultKind::NodeCrash, 0, sec(5), sec(30));
    w.inject(fault::FaultKind::AppCrash, 3, sec(20), 0);
    w.s.runUntil(sec(150));
    EXPECT_FALSE(w.cluster.splintered());
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(w.cluster.server(i).members().size(), 4u) << i;
    w.expectServing(sec(120), sec(150), 1200);
}

TEST(Robustness, LinkFaultDuringKernelMemoryFault)
{
    Storm w(press::Version::TcpPress);
    w.inject(fault::FaultKind::KernelMemAlloc, 1, sec(5), sec(40));
    w.inject(fault::FaultKind::LinkDown, 3, sec(10), sec(20));
    w.s.runUntil(sec(150));
    // Both faults cleared; plain TCP rides both out.
    EXPECT_FALSE(w.cluster.splintered());
    w.expectServing(sec(120), sec(150), 1200);
}

TEST(Robustness, RepeatedBadParamsKeepRestarting)
{
    Storm w(press::Version::ViaPress3);
    for (int i = 0; i < 4; ++i) {
        w.inject(fault::FaultKind::BadParamNull,
                 static_cast<NodeId>(1 + (i % 3)),
                 sec(static_cast<std::uint64_t>(5 + 25 * i)), 0);
    }
    w.s.runUntil(sec(180));
    EXPECT_FALSE(w.cluster.splintered());
    w.expectServing(sec(150), sec(180), 1200);
}

TEST(Robustness, SwitchFlapDuringNodeDowntime)
{
    Storm w(press::Version::ViaPress0);
    w.inject(fault::FaultKind::NodeCrash, 3, sec(5), sec(60));
    w.inject(fault::FaultKind::SwitchDown, 0, sec(20), sec(10));
    w.s.runUntil(sec(40));
    // Switch flap splintered the survivors into singletons.
    EXPECT_TRUE(w.cluster.splintered());
    // Operator puts it back together; the rebooted node rejoins too.
    w.cluster.operatorReset();
    w.s.runUntil(sec(160));
    EXPECT_FALSE(w.cluster.splintered());
    w.expectServing(sec(130), sec(160), 1200);
}

/** Property sweep: random fault storms never wedge the service. */
class StormSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(StormSweep, ClusterAlwaysRecovers)
{
    Storm w(press::Version::ViaPress0);
    Rng rng(GetParam());
    const fault::FaultKind kinds[] = {
        fault::FaultKind::NodeCrash,      fault::FaultKind::NodeFreeze,
        fault::FaultKind::KernelMemAlloc, fault::FaultKind::AppCrash,
        fault::FaultKind::AppHang,        fault::FaultKind::BadParamNull,
    };
    for (int i = 0; i < 8; ++i) {
        // Draw into locals: argument evaluation order is unspecified.
        fault::FaultKind kind = kinds[rng.uniformInt(0, 5)];
        auto target = static_cast<NodeId>(rng.uniformInt(0, 3));
        Tick at = sec(5 + rng.uniformInt(0, 60));
        Tick dur = sec(5 + rng.uniformInt(0, 30));
        w.inject(kind, target, at, dur);
    }
    w.s.runUntil(sec(130));
    // An operator pass heals whatever is left splintered.
    w.cluster.operatorReset();
    w.s.runUntil(sec(220));
    EXPECT_FALSE(w.cluster.splintered());
    w.expectServing(sec(190), sec(220), 1100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StormSweep,
                         ::testing::Values(11u, 22u, 33u, 44u));
