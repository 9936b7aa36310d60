/**
 * @file
 * Unit tests for the Mendosus-style injector: every fault kind must
 * manipulate exactly the intended component state and restore it on
 * recovery.
 */

#include <gtest/gtest.h>

#include <vector>

#include "faults/injector.hh"
#include "press/cluster.hh"
#include "sim/simulation.hh"

using namespace performa;
using namespace performa::sim;

namespace {

struct World
{
    Simulation s{5};
    press::Cluster cluster;
    fault::Injector injector;

    explicit World(press::Version v = press::Version::TcpPress)
        : cluster(s, makeCfg(v)), injector(s, cluster)
    {
        cluster.startAll();
        s.runUntil(sec(1));
    }

    /** The injector's Inject and Recover markers, in log order. */
    std::vector<press::Marker>
    faultMarkers() const
    {
        std::vector<press::Marker> out;
        for (const press::Marker &m : cluster.markers().all())
            if (m.kind == press::MarkerKind::Inject ||
                m.kind == press::MarkerKind::Recover)
                out.push_back(m);
        return out;
    }

    static press::ClusterConfig
    makeCfg(press::Version v)
    {
        press::ClusterConfig cfg;
        cfg.press.version = v;
        return cfg;
    }

    fault::FaultSpec
    spec(fault::FaultKind k, Tick duration = sec(10))
    {
        fault::FaultSpec f;
        f.kind = k;
        f.target = 2;
        f.injectAt = s.now();
        f.duration = duration;
        return f;
    }
};

} // namespace

TEST(Injector, LinkDownAndRecovery)
{
    World w;
    w.injector.injectNow(w.spec(fault::FaultKind::LinkDown));
    EXPECT_FALSE(w.cluster.intraNet().linkUp(2));
    EXPECT_TRUE(w.cluster.clientNet().linkUp(2)); // clients untouched
    w.s.runUntil(sec(12));
    EXPECT_TRUE(w.cluster.intraNet().linkUp(2));
    std::vector<press::Marker> events = w.faultMarkers();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, press::MarkerKind::Inject);
    EXPECT_EQ(events[0].detail, "inject link-down");
    EXPECT_EQ(events[0].node, 2u);
    EXPECT_EQ(events[0].t, sec(1));
    EXPECT_EQ(events[1].kind, press::MarkerKind::Recover);
    EXPECT_EQ(events[1].detail, "recover link-down");
    EXPECT_EQ(events[1].node, 2u);
    EXPECT_EQ(events[1].t, sec(11));
}

TEST(Injector, SwitchDownAndRecovery)
{
    World w;
    w.injector.injectNow(w.spec(fault::FaultKind::SwitchDown));
    EXPECT_FALSE(w.cluster.intraNet().switchUp());
    EXPECT_TRUE(w.cluster.clientNet().switchUp());
    w.s.runUntil(sec(12));
    EXPECT_TRUE(w.cluster.intraNet().switchUp());
    std::vector<press::Marker> events = w.faultMarkers();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, press::MarkerKind::Inject);
    EXPECT_EQ(events[0].detail, "inject switch-down");
    EXPECT_EQ(events[0].node, invalidNode); // the fabric, not a node
    EXPECT_EQ(events[1].kind, press::MarkerKind::Recover);
    EXPECT_EQ(events[1].detail, "recover switch-down");
    EXPECT_EQ(events[1].node, invalidNode);
}

TEST(Injector, NodeCrashPowersOffAndRebootsNode)
{
    World w;
    w.injector.injectNow(w.spec(fault::FaultKind::NodeCrash, sec(20)));
    EXPECT_FALSE(w.cluster.node(2).up());
    w.s.runUntil(sec(25));
    EXPECT_TRUE(w.cluster.node(2).up());
    EXPECT_EQ(w.cluster.node(2).incarnation(), 2u);
}

TEST(Injector, NodeFreezeSuspendsAndResumes)
{
    World w;
    w.injector.injectNow(w.spec(fault::FaultKind::NodeFreeze, sec(10)));
    EXPECT_TRUE(w.cluster.node(2).frozen());
    w.s.runUntil(sec(12));
    EXPECT_TRUE(w.cluster.node(2).up());
    EXPECT_FALSE(w.cluster.node(2).frozen());
}

TEST(Injector, KernelMemFaultTogglesAllocator)
{
    World w;
    w.injector.injectNow(w.spec(fault::FaultKind::KernelMemAlloc));
    EXPECT_TRUE(w.cluster.node(2).kernelMem().failInjected());
    EXPECT_FALSE(w.cluster.node(2).kernelMem().alloc(1));
    w.s.runUntil(sec(12));
    EXPECT_FALSE(w.cluster.node(2).kernelMem().failInjected());
}

TEST(Injector, PinFaultLowersAndRestoresThreshold)
{
    World w;
    auto f = w.spec(fault::FaultKind::PinExhaustion);
    f.pinLimitBytes = 1234;
    w.injector.injectNow(f);
    EXPECT_EQ(w.cluster.node(2).pins().effectiveLimit(), 1234u);
    w.s.runUntil(sec(12));
    EXPECT_GT(w.cluster.node(2).pins().effectiveLimit(), 1234u);
}

TEST(Injector, AppCrashKillsProcessDaemonRestarts)
{
    World w;
    w.injector.injectNow(w.spec(fault::FaultKind::AppCrash));
    EXPECT_FALSE(w.cluster.server(2).alive());
    w.s.runUntil(sec(15)); // restart delay (10 s)
    EXPECT_TRUE(w.cluster.server(2).alive());
    std::vector<press::Marker> events = w.faultMarkers();
    ASSERT_EQ(events.size(), 1u); // no duration, so no recovery
    EXPECT_EQ(events[0].kind, press::MarkerKind::Inject);
    EXPECT_EQ(events[0].detail, "inject app-crash");
}

TEST(Injector, AppHangStopsAndContinuesProcess)
{
    World w;
    w.injector.injectNow(w.spec(fault::FaultKind::AppHang, sec(8)));
    EXPECT_TRUE(w.cluster.server(2).stoppedBySignal());
    w.s.runUntil(sec(10));
    EXPECT_FALSE(w.cluster.server(2).stoppedBySignal());
    EXPECT_TRUE(w.cluster.server(2).alive());
}

TEST(Injector, BadParamFaultsArmTheNextSendParams)
{
    using fault::FaultKind;
    for (FaultKind k : {FaultKind::BadParamNull, FaultKind::BadParamOffPtr,
                        FaultKind::BadParamOffSize}) {
        SCOPED_TRACE(fault::faultName(k));
        World w;
        fault::FaultSpec f = w.spec(k);
        f.offByN = 24;
        EXPECT_FALSE(w.cluster.server(2).badParams().faulty());
        w.injector.injectNow(f);
        const proto::SendParams &p = w.cluster.server(2).badParams();
        EXPECT_EQ(p.nullPointer, k == FaultKind::BadParamNull);
        EXPECT_EQ(p.ptrOffset, k == FaultKind::BadParamOffPtr ? 24 : 0);
        EXPECT_EQ(p.sizeDelta, k == FaultKind::BadParamOffSize ? 24 : 0);
    }
}

TEST(Injector, ArmedBadParamSurvivesAProcessRestart)
{
    // With no client load the target sends nothing, so the fault is
    // still armed when its process crashes and the daemon restarts it.
    World w;
    w.injector.injectNow(w.spec(fault::FaultKind::BadParamNull));
    w.injector.injectNow(w.spec(fault::FaultKind::AppCrash));
    EXPECT_FALSE(w.cluster.server(2).alive());
    w.s.runUntil(sec(15)); // restart delay (10 s)
    EXPECT_TRUE(w.cluster.server(2).alive());
    EXPECT_TRUE(w.cluster.server(2).badParams().nullPointer);
}

TEST(Injector, PacketDropOnTcpIsHarmless)
{
    World w(press::Version::TcpPress);
    w.injector.injectNow(w.spec(fault::FaultKind::PacketDrop));
    EXPECT_TRUE(w.cluster.server(2).alive());
}

TEST(Injector, PacketDropOnViaActsAsProcessCrash)
{
    World w(press::Version::ViaPress0);
    w.injector.injectNow(w.spec(fault::FaultKind::PacketDrop));
    EXPECT_FALSE(w.cluster.server(2).alive());
    w.s.runUntil(sec(15));
    EXPECT_TRUE(w.cluster.server(2).alive()); // restarted + rejoined
}

TEST(Injector, ScheduleDefersInjection)
{
    World w;
    auto f = w.spec(fault::FaultKind::LinkDown);
    f.injectAt = sec(5);
    w.injector.schedule(f);
    EXPECT_TRUE(w.cluster.intraNet().linkUp(2));
    w.s.runUntil(sec(6));
    EXPECT_FALSE(w.cluster.intraNet().linkUp(2));
}

TEST(Injector, FaultNamesAreStable)
{
    for (fault::FaultKind k : fault::allFaultKinds)
        EXPECT_STRNE(fault::faultName(k), "?");
    EXPECT_STREQ(fault::faultName(fault::FaultKind::PacketDrop),
                 "packet-drop");
}

TEST(Injector, HasDurationMatchesFaultSemantics)
{
    EXPECT_TRUE(fault::hasDuration(fault::FaultKind::LinkDown));
    EXPECT_TRUE(fault::hasDuration(fault::FaultKind::AppHang));
    EXPECT_FALSE(fault::hasDuration(fault::FaultKind::AppCrash));
    EXPECT_FALSE(fault::hasDuration(fault::FaultKind::BadParamNull));
}
