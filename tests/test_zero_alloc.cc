/**
 * @file
 * Locks in the allocation-free message path: global operator new is
 * replaced with a counting hook, and a warmed-up TCP echo flood (plus
 * a raw Network frame blast) must execute its steady-state window
 * without a single heap allocation — payloads come from the pool,
 * in-flight frames from the parked slab, queue slots from the rings,
 * and event records from the event-engine slab. The measure window
 * of a warmed, fault-free PRESS cluster allocates nothing for every
 * version, a fork of a warmed PRESS experiment is held under 200
 * allocations, independent of cache size and request backlog, a
 * warmed CPU and the warmed servers restore in place without
 * allocating, and so does a deadline FIFO. An event queue with both
 * tiers populated schedules, fires and restores without allocating. A
 * latency timeline reserves a whole run of slices up front, seals even
 * a second with every bucket in use without allocating, and copies
 * only its non-zero buckets; a 4-node directory copy costs one byte
 * per file.
 *
 * This file must stay its own test binary: the hook is global.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "campaign/phase1.hh"
#include "exp/experiment.hh"
#include "loadgen/session_farm.hh"
#include "net/network.hh"
#include "os/node.hh"
#include "press/directory.hh"
#include "press/messages.hh"
#include "proto/tcp.hh"
#include "sim/deadline_fifo.hh"
#include "sim/latency_histogram.hh"
#include "sim/simulation.hh"

namespace {

bool g_counting = false;
std::uint64_t g_news = 0;
std::uint64_t g_bytes = 0;

void *
countedAlloc(std::size_t n)
{
    if (g_counting) {
        ++g_news;
        g_bytes += n;
    }
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAllocAligned(std::size_t n, std::size_t align)
{
    if (g_counting) {
        ++g_news;
        g_bytes += n;
    }
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

struct TwoNodeWorld
{
    sim::Simulation sim{7};
    net::Network intra{sim};
    net::Network client{sim};
    osim::Node n0{sim, 0, intra, client};
    osim::Node n1{sim, 1, intra, client};
};

} // namespace

TEST(ZeroAlloc, TcpEchoFloodSteadyStateAllocatesNothing)
{
    TwoNodeWorld w;
    proto::TcpComm a(w.n0, proto::TcpConfig{});
    proto::TcpComm b(w.n1, proto::TcpConfig{});
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
    w.sim.runUntil(sim::sec(1));
    ASSERT_TRUE(a.connected(1));

    constexpr int kWindow = 16;
    auto pumpWindow = [&] {
        for (int i = 0; i < kWindow; ++i) {
            proto::AppMessage m;
            m.type = 1;
            m.bytes = 1024;
            a.send(1, std::move(m), {});
        }
        w.sim.events().runAll();
    };

    // Warm-up: let every slab, ring, pool class and the event heap
    // reach steady-state capacity.
    for (int r = 0; r < 50; ++r)
        pumpWindow();

    std::uint64_t fresh_before = w.sim.pool().freshAllocs();
    std::uint64_t echoed_before = echoed;
    g_news = 0;
    g_counting = true;
    for (int r = 0; r < 200; ++r)
        pumpWindow();
    g_counting = false;

    EXPECT_EQ(echoed - echoed_before, 200u * kWindow);
    EXPECT_EQ(g_news, 0u) << "heap allocations in the steady state";
    EXPECT_EQ(w.sim.pool().freshAllocs(), fresh_before)
        << "payload pool carved fresh blocks in the steady state";
}

TEST(ZeroAlloc, NetworkFrameBlastSteadyStateAllocatesNothing)
{
    sim::Simulation s{7};
    net::Network net{s};
    net::PortId p0 = net.addPort();
    net::PortId p1 = net.addPort();
    std::uint64_t got = 0, acked = 0;
    net.setHandler(p1, [&](net::Frame &&) { ++got; });

    constexpr int kBurst = 64;
    auto blast = [&] {
        for (int i = 0; i < kBurst; ++i) {
            net::Frame f;
            f.srcPort = p0;
            f.dstPort = p1;
            f.bytes = 512;
            net.send(std::move(f), [&](bool ok) { acked += ok; });
        }
        s.events().runAll();
    };

    for (int r = 0; r < 20; ++r)
        blast();

    std::uint64_t got_before = got;
    g_news = 0;
    g_counting = true;
    for (int r = 0; r < 100; ++r)
        blast();
    g_counting = false;

    EXPECT_EQ(got - got_before, 100u * kBurst);
    EXPECT_EQ(acked, got);
    EXPECT_EQ(g_news, 0u) << "heap allocations in the steady state";
}

TEST(ZeroAlloc, SessionClientFloodSteadyStateAllocatesNothing)
{
    sim::Simulation s{11};
    net::Network net{s};
    std::vector<net::PortId> servers, clients;
    for (int i = 0; i < 2; ++i)
        servers.push_back(net.addPort());
    for (int i = 0; i < 2; ++i)
        clients.push_back(net.addPort());

    // An echoing server: responds from the payload pool so the
    // whole request/response loop runs off pre-carved memory.
    for (net::PortId p : servers) {
        net.setHandler(p, [&s, &net, p](net::Frame &&f) {
            auto *req = f.payload.get<press::ClientRequestBody>();
            net::Frame r;
            r.srcPort = p;
            r.dstPort = req->replyPort;
            r.proto = net::Proto::Client;
            r.kind = press::ClientResponse;
            r.bytes = 8192;
            auto body = s.makePayload<press::ClientResponseBody>();
            body->req = req->req;
            body->sentAt = req->sentAt;
            r.payload = std::move(body);
            net.send(std::move(r));
        });
    }

    loadgen::WorkloadConfig cfg;
    cfg.requestRate = 2000;
    cfg.numFiles = 500;
    auto profile = *loadgen::profileByName("sessions");
    profile.reserveSlices = 128; // covers the whole run below
    loadgen::SessionFarm farm(s, net, servers, clients, cfg, profile);
    farm.start();

    // Warm-up: session table live, payload pool and event slab at
    // steady-state capacity, histograms carved out.
    s.runUntil(sim::sec(5));
    ASSERT_GT(farm.totalServed(), 0u);

    // Deterministically pre-carve pool capacity past any stochastic
    // in-flight peak: every session can have a request body and a
    // response body live at once, plus slack for queued frames.
    {
        std::vector<sim::Rc<press::ClientRequestBody>> reqs;
        std::vector<sim::Rc<press::ClientResponseBody>> resps;
        std::size_t n = 4 * farm.sessionCount() + 64;
        reqs.reserve(n);
        resps.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            reqs.push_back(s.makePayload<press::ClientRequestBody>());
            resps.push_back(s.makePayload<press::ClientResponseBody>());
        }
    } // handles drop here; the blocks land on the free lists

    std::uint64_t fresh_before = s.pool().freshAllocs();
    std::uint64_t served_before = farm.totalServed();
    g_news = 0;
    g_counting = true;
    s.runUntil(sim::sec(60));
    g_counting = false;

    EXPECT_GT(farm.totalServed(), served_before);
    EXPECT_EQ(farm.totalFailed(), 0u);
    EXPECT_GT(farm.timeline()
                  .window(sim::LatencyStage::Total, 0, sim::sec(61))
                  .count(),
              0u);
    EXPECT_EQ(g_news, 0u) << "heap allocations in the steady state";
    EXPECT_EQ(s.pool().freshAllocs(), fresh_before)
        << "payload pool carved fresh blocks in the steady state";
}

TEST(ZeroAlloc, TimelineReservesItsSlicesInOneBlock)
{
    // A switch-down run's worth of one-second slices: reserving them
    // is one block of headers and one of pairs, however long the run.
    g_news = 0;
    g_counting = true;
    {
        sim::StageLatencyTimeline tl(4000);
        tl.record(sim::sec(3999), sim::msec(5));
        EXPECT_EQ(tl.sliceCount(), 4000u);
    }
    g_counting = false;
    EXPECT_LE(g_news, 2u) << "allocations to reserve 4 000 slices";
}

TEST(ZeroAlloc, TimelineSealsAFullSecondWithoutAllocating)
{
    // The reservation covers every second using all 705 buckets, so
    // even the worst-case second seals into it. Steps of v/64 are at
    // most half a bucket, so the stream hits every bucket, overflow
    // included.
    sim::StageLatencyTimeline tl(8);
    g_news = 0;
    g_counting = true;
    for (std::uint64_t v = 0; v < sim::sec(80); v = v < 64 ? v + 1 : v + v / 64)
        tl.record(sim::sec(2), v);
    tl.record(sim::sec(3), sim::msec(1));
    tl.record(sim::sec(7), sim::msec(1));
    g_counting = false;
    EXPECT_EQ(g_news, 0u) << "allocations to seal a full second";
    EXPECT_EQ(tl.sliceCount(), 8u);
    sim::LatencyHistogram full =
        tl.window(sim::LatencyStage::Total, sim::sec(2), sim::sec(3));
    EXPECT_EQ(full.count(),
              tl.window(sim::LatencyStage::Total, 0, sim::sec(8)).count() - 2);
    EXPECT_GE(full.maxRecorded(), sim::sec(64));
}

TEST(ZeroAlloc, TimelineCopyIsItsNonZeroBuckets)
{
    // A switch-down run's worth of seconds with about 40 buckets in
    // use each: a copy (a snapshot, or the result the run hands back)
    // holds a header per second and a pair per non-zero bucket, not
    // 705 counts per second.
    constexpr std::size_t kSeconds = 3900;
    sim::StageLatencyTimeline tl(kSeconds + 2);
    for (std::size_t s = 0; s < kSeconds; ++s)
        for (std::uint64_t b = 0; b < 40; ++b)
            tl.record(sim::sec(s), sim::msec(1) + (b + s % 7) * sim::usec(40));
    ASSERT_EQ(tl.sliceCount(), kSeconds);
    g_bytes = 0;
    g_counting = true;
    sim::StageLatencyTimeline copy = tl;
    g_counting = false;
    EXPECT_LT(g_bytes, 1500000u) << "bytes allocated to copy the timeline";
    EXPECT_TRUE(copy.window(sim::LatencyStage::Total, 0, sim::sec(kSeconds)) ==
                tl.window(sim::LatencyStage::Total, 0, sim::sec(kSeconds)));
}

TEST(ZeroAlloc, DirectoryCopyIsOneBytePerFile)
{
    // Every server keeps one directory live and one in its snapshot:
    // a node bitmask per file keeps a 4-node copy at one byte per
    // file of the campaign's working set, plus the per-node counters.
    constexpr std::size_t kFiles = 68000;
    press::Directory d(4);
    d.reserve(kFiles);
    for (sim::FileId f = 0; f < kFiles; ++f)
        d.add(f, static_cast<sim::NodeId>(f % 4));
    g_bytes = 0;
    g_counting = true;
    press::Directory copy = d;
    g_counting = false;
    EXPECT_EQ(copy.entriesOf(3), kFiles / 4);
    EXPECT_LE(g_bytes, kFiles + 64) << "bytes allocated to copy the directory";
}

TEST(ZeroAlloc, PressMeasureWindowAllocatesNothing)
{
    // The campaign's warmed 4-node world at the paper's load, then a
    // fault-free measure window: every served request — accept,
    // dispatch, forward, disk read, cache insert and broadcast, reply —
    // runs on pooled payloads, slab event records and inline SmallFn
    // closures, for every version.
    for (press::Version v : press::allVersions) {
        SCOPED_TRACE(press::versionName(v));
        exp::ExperimentConfig cfg =
            campaign::phase1WarmConfig(v, {fault::FaultKind::AppCrash});
        ASSERT_EQ(cfg.cluster.press.numNodes, 4u);
        exp::Experiment e(cfg);
        e.warmUp();
        auto served = [&e] {
            std::uint64_t n = 0;
            for (sim::NodeId i = 0; i < e.cluster().numNodes(); ++i)
                n += e.cluster().server(i).served();
            return n;
        };
        std::uint64_t served_before = served();

        g_news = 0;
        g_counting = true;
        e.sim().runUntil(e.sim().now() + sim::sec(10));
        g_counting = false;

        EXPECT_GT(served(), served_before + 10000u);
        EXPECT_EQ(g_news, 0u) << "heap allocations in the measure window";
    }
}

TEST(ZeroAlloc, ForkOfAWarmedPressExperimentAllocatesLittle)
{
    // The campaign's own warm-up for TCP-PRESS: 4 nodes, the paper's
    // load, 60 s of warm traffic. A fork restores its caches,
    // directories and in-flight requests as a few flat array copies
    // per component; the rest are small containers copied wholesale
    // (member sets, main-loop queues, timelines), a few hundred
    // allocations in all. Rebuilding per cached file, directory entry
    // or pending request would allocate hundreds of thousands of
    // times.
    exp::ExperimentConfig cfg = campaign::phase1WarmConfig(
        press::Version::TcpPress, {fault::FaultKind::AppCrash});
    ASSERT_EQ(cfg.cluster.press.numNodes, 4u);
    exp::Experiment e(cfg);
    e.warmUp();
    sim::Snapshot snap = e.snapshot();

    g_news = 0;
    g_counting = true;
    e.forkFrom(snap);
    g_counting = false;
    EXPECT_LT(g_news, 200u) << "allocations in the first fork";

    // The campaign's pattern: a measured run, then the next fork.
    e.sim().runUntil(e.sim().now() + sim::sec(5));
    g_news = 0;
    g_counting = true;
    e.forkFrom(snap);
    g_counting = false;
    EXPECT_LT(g_news, 200u) << "allocations in a fork after a run";
}

TEST(ZeroAlloc, ForkRewindsTheCpuQueueAndThePageCacheInPlace)
{
    // A fork refills what the warmed world already holds: a CPU's run
    // queue keeps its ring, and each server refills its page cache
    // (same pin hooks, arrays already grown) instead of building a
    // new one.
    exp::ExperimentConfig cfg = campaign::phase1WarmConfig(
        press::Version::TcpPress, {fault::FaultKind::AppCrash});
    exp::Experiment e(cfg);
    e.warmUp();
    press::Cluster &c = e.cluster();
    osim::Cpu &cpu = c.node(0).cpu();
    osim::Cpu::Saved cpu_saved = cpu.save();
    std::vector<press::Server::Saved> servers;
    for (sim::NodeId i = 0; i < c.numNodes(); ++i)
        servers.push_back(c.server(i).save());
    std::size_t cached = c.server(0).cachedFiles();
    ASSERT_GT(cached, 0u);

    // The campaign's pattern: a measured run, then the next fork.
    e.sim().runUntil(e.sim().now() + sim::sec(1));

    g_news = 0;
    g_counting = true;
    cpu.restore(cpu_saved);
    g_counting = false;
    EXPECT_EQ(g_news, 0u) << "allocations restoring a CPU";

    g_news = 0;
    g_counting = true;
    for (sim::NodeId i = 0; i < c.numNodes(); ++i)
        c.server(i).restore(servers[i]);
    g_counting = false;
    EXPECT_EQ(g_news, 0u) << "allocations restoring the servers";
    EXPECT_EQ(c.server(0).cachedFiles(), cached);
}

TEST(ZeroAlloc, EventQueueBothTiersScheduleFireAndRestore)
{
    // Near events (the wheel) and far ones (the heap), some cancelled
    // in each tier, then a run across both and a restore: once the
    // slab, free list and heap have grown to the pattern's size, none
    // of it allocates. The wheel's buckets and bitmap are fixed-size
    // arrays, so a restore copies them in place.
    sim::EventQueue q;
    constexpr sim::Tick wheel = sim::EventQueue::wheelSize;
    std::uint64_t fired = 0;
    auto load = [&] {
        for (sim::Tick i = 0; i < 300; ++i) {
            q.scheduleIn(1 + i % (wheel - 1), [&fired] { ++fired; });
            q.scheduleIn(wheel + i * 37, [&fired] { ++fired; });
        }
    };
    load();
    sim::EventQueue::Saved saved = q.save();
    ASSERT_EQ(q.pending(), 600u);
    auto round = [&] {
        load();
        sim::EventHandle near = q.scheduleIn(3, [&fired] { ++fired; });
        sim::EventHandle far = q.scheduleIn(sim::sec(1), [&fired] { ++fired; });
        q.cancel(near);
        q.cancel(far);
        q.runUntil(q.now() + 2 * wheel);
        q.restore(saved);
    };
    round(); // grows the slab, free list and heap to the pattern's size

    g_news = 0;
    g_counting = true;
    for (int i = 0; i < 3; ++i)
        round();
    g_counting = false;
    EXPECT_EQ(g_news, 0u) << "allocations scheduling, firing or restoring";
    EXPECT_EQ(q.pending(), 600u);
    fired = 0;
    q.runAll();
    EXPECT_EQ(fired, 600u);
}

namespace {

/** Every entry stays live; expiries only count. */
struct CountingOwner
{
    std::size_t expired = 0;
    bool deadlineLive(const int &) const { return true; }
    void deadlineExpired(const int &) { ++expired; }
};

} // namespace

TEST(DeadlineFifo, RestoreInPlaceAllocatesNothing)
{
    // A fork refills a warmed FIFO in place: its ring keeps the
    // capacity it grew to, so restoring allocates nothing, whether the
    // run since the save drained the FIFO or refilled it.
    sim::EventQueue q;
    CountingOwner owner;
    sim::DeadlineFifo<int, CountingOwner> fifo(q, owner, 1000);
    int next = 0;
    auto pushFor = [&](sim::Tick until) {
        for (sim::Tick t = q.now(); t < until; ++t) {
            q.runUntil(t);
            fifo.push(next++);
            fifo.push(next++);
        }
    };
    pushFor(3000);
    auto q_saved = q.save();
    auto saved = fifo.save();
    std::size_t waiting = fifo.size();
    int head = fifo[0];
    ASSERT_EQ(waiting, 2000u);

    for (bool refill : {false, true}) {
        SCOPED_TRACE(refill ? "refilled" : "drained");
        if (refill)
            pushFor(q.now() + 1500);
        else
            q.runUntil(q.now() + 5000);
        q.restore(q_saved);
        g_news = 0;
        g_counting = true;
        fifo.restore(saved);
        g_counting = false;
        EXPECT_EQ(g_news, 0u) << "allocations in restore";
        EXPECT_EQ(fifo.size(), waiting);
        EXPECT_EQ(fifo[0], head);
    }
    // The restored queue and FIFO run on together.
    std::size_t expired = owner.expired;
    q.runAll();
    EXPECT_EQ(owner.expired, expired + waiting);
}
