/**
 * @file
 * Warm-state snapshot/fork contract: a fault run forked from a warmed
 * snapshot must be byte-identical to a fresh run that warmed up on its
 * own, repeated forks from one snapshot must not contaminate each
 * other, and forked steady-state traffic must stay allocation-free
 * (restore preserves every ring, slab and reserve capacity).
 *
 * This file must stay its own test binary: the operator-new counting
 * hook for the zero-alloc check is global.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "campaign/phase1.hh"
#include "exp/experiment.hh"
#include "exp/stages.hh"
#include "net/network.hh"
#include "os/node.hh"
#include "proto/tcp.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"

namespace {

bool g_counting = false;
std::uint64_t g_news = 0;

void *
countedAlloc(std::size_t n)
{
    if (g_counting)
        ++g_news;
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAllocAligned(std::size_t n, std::size_t align)
{
    if (g_counting)
        ++g_news;
    void *p = nullptr;
    if (posix_memalign(&p, align < sizeof(void *) ? sizeof(void *) : align,
                       n ? n : 1) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAllocAligned(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAllocAligned(n, static_cast<std::size_t>(a));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace performa;

namespace {

/** A cheap grid point: light load, short post-fault tail. */
exp::ExperimentConfig
fastConfig(press::Version v, fault::FaultKind k)
{
    exp::ExperimentConfig cfg = exp::experimentFor(v, k);
    cfg.workload.requestRate = 900;
    cfg.workload.numFiles = 20000;
    cfg.duration = cfg.injectAt + sim::sec(45);
    return cfg;
}

/**
 * Full-surface equality of two experiment results, down to each
 * one-second total-latency window an SLO row reads. Slice *counts* of
 * the latency timeline are excluded on purpose: they reflect the
 * reserve sizing (which may legitimately differ between a fresh run
 * and a fork from a longer warm config), not behaviour.
 */
void
expectIdentical(const exp::ExperimentResult &a,
                const exp::ExperimentResult &b, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.normalThroughput, b.normalThroughput);
    EXPECT_EQ(a.availability, b.availability);
    EXPECT_EQ(a.finalMembers, b.finalMembers);
    EXPECT_EQ(a.endSplintered, b.endSplintered);
    EXPECT_EQ(a.runLength, b.runLength);

    ASSERT_EQ(a.markers.all().size(), b.markers.all().size());
    for (std::size_t i = 0; i < a.markers.all().size(); ++i) {
        const press::Marker &ma = a.markers.all()[i];
        const press::Marker &mb = b.markers.all()[i];
        EXPECT_EQ(ma.t, mb.t);
        EXPECT_EQ(ma.kind, mb.kind);
        EXPECT_EQ(ma.node, mb.node);
        EXPECT_EQ(ma.other, mb.other);
        EXPECT_EQ(ma.detail, mb.detail);
    }

    auto expectSeriesEq = [](const sim::TimeSeries &sa,
                             const sim::TimeSeries &sb) {
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t i = 0; i < sa.size(); ++i)
            EXPECT_EQ(sa.count(i), sb.count(i)) << "bucket " << i;
    };
    expectSeriesEq(a.served, b.served);
    expectSeriesEq(a.failed, b.failed);
    expectSeriesEq(a.offered, b.offered);

    constexpr auto total = sim::LatencyStage::Total;
    ASSERT_EQ(a.latency.sliceCount(), b.latency.sliceCount());
    for (sim::Tick t = 0; t <= a.runLength; t += sim::sec(1)) {
        SCOPED_TRACE("second " + std::to_string(t / sim::sec(1)));
        EXPECT_TRUE(a.latency.window(total, t, t + sim::sec(1)) ==
                    b.latency.window(total, t, t + sim::sec(1)));
    }

    ASSERT_EQ(a.intraPortStats.size(), b.intraPortStats.size());
    for (std::size_t p = 0; p < a.intraPortStats.size(); ++p) {
        const net::PortStats &pa = a.intraPortStats[p];
        const net::PortStats &pb = b.intraPortStats[p];
        EXPECT_EQ(pa.framesSent, pb.framesSent);
        EXPECT_EQ(pa.bytesSent, pb.bytesSent);
        EXPECT_EQ(pa.framesReceived, pb.framesReceived);
        EXPECT_EQ(pa.bytesReceived, pb.bytesReceived);
        EXPECT_EQ(pa.dropPortDown, pb.dropPortDown);
        EXPECT_EQ(pa.dropLinkDown, pb.dropLinkDown);
        EXPECT_EQ(pa.dropSwitchDown, pb.dropSwitchDown);
        EXPECT_EQ(pa.dropDiedInFlight, pb.dropDiedInFlight);
    }
}

} // namespace

TEST(Snapshot, ForkMatchesFreshRunByteForByte)
{
    const std::pair<press::Version, fault::FaultKind> points[] = {
        {press::Version::TcpPress, fault::FaultKind::AppCrash},
        {press::Version::TcpPressHb, fault::FaultKind::NodeFreeze},
        {press::Version::ViaPress0, fault::FaultKind::LinkDown},
        {press::Version::ViaPress3, fault::FaultKind::NodeCrash},
        {press::Version::ViaPress5, fault::FaultKind::NodeFreeze},
    };
    for (auto [v, k] : points) {
        exp::ExperimentConfig cfg = fastConfig(v, k);

        // Fresh path: warm up and measure in one world, no snapshot.
        exp::ExperimentResult fresh = exp::runExperiment(cfg);

        // Fork path: warm a fault-free world sized like the campaign's
        // shared warm config, capture, rewind, then inject.
        exp::ExperimentConfig warmCfg = cfg;
        warmCfg.fault.reset();
        warmCfg.duration = cfg.duration + sim::sec(30);
        exp::Experiment e(warmCfg);
        e.warmUp();
        sim::Snapshot snap = e.snapshot();
        e.forkFrom(snap);
        exp::ExperimentResult forked =
            e.injectAndMeasure(cfg.fault, cfg.duration);

        expectIdentical(fresh, forked,
                        std::string(press::versionName(v)) + " x " +
                            fault::faultName(k));
    }
}

TEST(Snapshot, RepeatedForksFromOneSnapshotStayIndependent)
{
    press::Version v = press::Version::TcpPress;
    exp::ExperimentConfig cfgA =
        fastConfig(v, fault::FaultKind::AppCrash);
    exp::ExperimentConfig cfgB =
        fastConfig(v, fault::FaultKind::LinkDown);

    exp::ExperimentConfig warmCfg = cfgA;
    warmCfg.fault.reset();
    if (cfgB.duration > warmCfg.duration)
        warmCfg.duration = cfgB.duration;

    exp::Experiment e(warmCfg);
    e.warmUp();
    sim::Snapshot snap = e.snapshot();

    e.forkFrom(snap);
    exp::ExperimentResult a1 =
        e.injectAndMeasure(cfgA.fault, cfgA.duration);

    // A divergent fault schedule in between must leave no trace.
    e.forkFrom(snap);
    exp::ExperimentResult b =
        e.injectAndMeasure(cfgB.fault, cfgB.duration);

    e.forkFrom(snap);
    exp::ExperimentResult a2 =
        e.injectAndMeasure(cfgA.fault, cfgA.duration);

    expectIdentical(a1, a2, "same fault, before/after divergent fork");

    // And the divergent run really did diverge (different fault, so
    // the runs cannot coincide on every observable).
    EXPECT_TRUE(a1.availability != b.availability ||
                a1.markers.all().size() != b.markers.all().size())
        << "fault A and fault B produced indistinguishable runs";
}

TEST(Snapshot, ForkDisarmsABadParamFaultArmedAfterTheSnapshot)
{
    // The armed fault is server state: a fork rewinds it with the rest.
    exp::ExperimentConfig cfg = fastConfig(press::Version::TcpPress,
                                           fault::FaultKind::BadParamNull);
    fault::FaultSpec spec = *cfg.fault;
    cfg.fault.reset();
    exp::Experiment e(cfg);
    e.warmUp();
    sim::Snapshot snap = e.snapshot();
    e.injector().injectNow(spec);
    press::Server &target = e.cluster().server(spec.target);
    ASSERT_TRUE(target.badParams().nullPointer);
    e.forkFrom(snap);
    EXPECT_FALSE(target.badParams().faulty());
}

TEST(Snapshot, ForkedSteadyStateTrafficAllocatesNothing)
{
    // A TCP echo flood (the canonical zero-alloc workload), but run
    // through capture + restore first: the fork must hand back every
    // pre-sized ring, slab and pool, so the steady state after a fork
    // is as allocation-free as before it.
    sim::Simulation sim{7};
    net::Network intra{sim};
    net::Network client{sim};
    osim::Node n0(sim, 0, intra, client);
    osim::Node n1(sim, 1, intra, client);

    proto::TcpComm a(n0, proto::TcpConfig{});
    proto::TcpComm b(n1, proto::TcpConfig{});
    std::uint64_t echoed = 0;
    proto::CommCallbacks bcbs;
    bcbs.onMessage = [&](sim::NodeId peer, proto::AppMessage &&m) {
        b.send(peer, std::move(m), {});
    };
    b.setCallbacks(bcbs);
    proto::CommCallbacks acbs;
    acbs.onMessage = [&](sim::NodeId, proto::AppMessage &&) { ++echoed; };
    a.setCallbacks(acbs);
    a.start();
    b.start();
    a.connect(1);
    sim.runUntil(sim::sec(1));
    ASSERT_TRUE(a.connected(1));

    constexpr int kWindow = 16;
    auto pumpWindow = [&] {
        for (int i = 0; i < kWindow; ++i) {
            proto::AppMessage m;
            m.type = 1;
            m.bytes = 1024;
            a.send(1, std::move(m), {});
        }
        sim.events().runAll();
    };

    // Reach steady-state capacity everywhere, then snapshot and fork.
    for (int r = 0; r < 50; ++r)
        pumpWindow();

    sim::SnapshotRegistry reg;
    reg.attach(sim);
    reg.attach(intra);
    reg.attach(client);
    reg.attach(n0);
    reg.attach(n1);
    reg.attach(a);
    reg.attach(b);
    sim::Snapshot snap = reg.capture();
    reg.forkFrom(snap);

    std::uint64_t fresh_before = sim.pool().freshAllocs();
    std::uint64_t echoed_before = echoed;
    g_news = 0;
    g_counting = true;
    for (int r = 0; r < 200; ++r)
        pumpWindow();
    g_counting = false;

    EXPECT_EQ(echoed - echoed_before, 200u * kWindow);
    EXPECT_EQ(g_news, 0u)
        << "heap allocations in the forked steady state";
    EXPECT_EQ(sim.pool().freshAllocs(), fresh_before)
        << "payload pool carved fresh blocks after the fork";
}
