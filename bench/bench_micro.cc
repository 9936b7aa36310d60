/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate itself:
 * event-queue throughput, Zipf sampling, LRU cache churn, TCP and VIA
 * message round-trips, and phase-2 model evaluation. These bound how
 * fast the fault-injection experiments run, not anything the paper
 * measures.
 */

#include <benchmark/benchmark.h>

#include "core/performability.hh"
#include "exp/experiment.hh"
#include "loadgen/session_farm.hh"
#include "net/network.hh"
#include "os/node.hh"
#include "press/cache.hh"
#include "press/messages.hh"
#include "proto/tcp.hh"
#include "proto/via.hh"
#include "sim/deadline_fifo.hh"
#include "sim/latency_histogram.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"

using namespace performa;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t sink = 0;
        for (int i = 0; i < 1024; ++i)
            q.scheduleIn(static_cast<sim::Tick>(i % 97), [&] { ++sink; });
        q.runAll();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_EventQueueTimerArmCancel(benchmark::State &state)
{
    // Mirrors the TCP hot path (tcp.cc armRto/handleAck): every data
    // send arms an RTO timer and the matching ACK cancels it before it
    // fires, so the dominant cost is arm + cancel + queue upkeep, not
    // execution. The fired counter stays 0 in the steady state.
    sim::EventQueue q;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        sim::EventHandle rto = q.scheduleIn(100, [&] { ++fired; });
        q.cancel(rto);
        q.runUntil(q.now() + 1);
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations());
    state.counters["heap_final"] = static_cast<double>(q.heapSize());
}
BENCHMARK(BM_EventQueueTimerArmCancel);

static void
BM_EventQueueExpiryFlood(benchmark::State &state)
{
    // The engine's cancel-heavy heap guard: every iteration arms a
    // long (6 s) timer and cancels it a tick later, the pattern of a
    // per-request timeout whose answer comes at once. (The loadgen
    // farms avoid it with sim::DeadlineFifo; any component that arms
    // and cancels timers this way still relies on this bound.)
    // Cancelled timers must not linger in the heap for the remaining
    // simulated seconds; peak_heap verifies the engine bounds its heap
    // (compaction) instead of accumulating one dead entry per cancel.
    // Iterations are pinned so the peak heap counter is comparable
    // across engine versions.
    sim::EventQueue q;
    std::uint64_t expired = 0;
    std::size_t peak = 0;
    for (auto _ : state) {
        sim::EventHandle expiry =
            q.scheduleIn(sim::sec(6), [&] { ++expired; });
        q.runUntil(q.now() + 1); // the response arrives
        q.cancel(expiry);
        if (q.heapSize() > peak)
            peak = q.heapSize();
    }
    benchmark::DoNotOptimize(expired);
    state.SetItemsProcessed(state.iterations());
    state.counters["peak_heap"] = static_cast<double>(peak);
}
BENCHMARK(BM_EventQueueExpiryFlood)->Iterations(1 << 18);

namespace {

/**
 * The campaign's delay mix for BM_EventQueueNearFuture: most events
 * re-arm well under 1 ms ahead, a few far timers sit 10 ms to 1 s
 * out, and a deadline FIFO re-arms its head under a seq reserved when
 * the deadline was pushed.
 */
struct NearFutureLoad
{
    static constexpr int nearChains = 192;
    static constexpr int farTimers = 48;
    static constexpr std::size_t tableSize = 4096;

    /** Every 8th pushed deadline is still live when it comes due. */
    struct Owner
    {
        bool deadlineLive(const int &v) const { return v % 8 == 0; }
        void deadlineExpired(const int &) {}
    };

    sim::EventQueue q;
    Owner owner;
    sim::DeadlineFifo<int, Owner> deadlines{q, owner, sim::msec(50)};
    std::vector<sim::Tick> nearDelay, farDelay;
    std::size_t nextNear = 0, nextFar = 0;
    int pushed = 0;

    NearFutureLoad() : nearDelay(tableSize), farDelay(tableSize)
    {
        sim::Rng rng(7);
        for (std::size_t i = 0; i < tableSize; ++i) {
            nearDelay[i] = static_cast<sim::Tick>(rng.uniformInt(1, 999));
            farDelay[i] = static_cast<sim::Tick>(
                rng.uniformInt(sim::msec(10), sim::sec(1)));
        }
        for (int i = 0; i < nearChains; ++i)
            armNear();
        for (int i = 0; i < farTimers; ++i)
            armFar();
    }

    void
    armNear()
    {
        q.scheduleIn(nearDelay[nextNear++ % tableSize], [this] {
            if (nextNear % 8 == 0)
                deadlines.push(pushed++);
            armNear();
        });
    }

    void
    armFar()
    {
        q.scheduleIn(farDelay[nextFar++ % tableSize], [this] { armFar(); });
    }
};

} // namespace

static void
BM_EventQueueNearFuture(benchmark::State &state)
{
    // Steady state of the campaign's event mix (88-98% of schedules
    // are due under 1 ms ahead, none at the current tick): 192 event
    // chains re-arming 1-999 ticks ahead, 48 timers 10 ms-1 s ahead,
    // and a 50 ms deadline FIFO pushed by every 8th event. One item is
    // one event fired.
    NearFutureLoad load;
    for (auto _ : state)
        benchmark::DoNotOptimize(load.q.runOne());
    state.SetItemsProcessed(state.iterations());
    state.counters["heap_final"] = static_cast<double>(load.q.heapSize());
}
BENCHMARK(BM_EventQueueNearFuture);

static void
BM_ZipfSample(benchmark::State &state)
{
    sim::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 0.8);
    sim::Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1024)->Arg(65536)->Arg(68000);

static void
BM_LruCacheChurn(benchmark::State &state)
{
    press::FileCache cache(1024 * 8192, 8192);
    sim::Rng rng(7);
    std::uint64_t evictions = 0;
    for (auto _ : state) {
        auto f = static_cast<sim::FileId>(rng.uniformInt(0, 4095));
        cache.insert(f, [&](sim::FileId) { ++evictions; });
    }
    benchmark::DoNotOptimize(evictions);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheChurn);

namespace {

/** Minimal two-node world for protocol round-trip benchmarks. */
struct TwoNodeWorld
{
    sim::Simulation sim{7};
    net::Network intra{sim};
    net::Network client{sim};
    osim::Node n0{sim, 0, intra, client};
    osim::Node n1{sim, 1, intra, client};
};

} // namespace

static void
BM_TcpEchoFlood(benchmark::State &state)
{
    // The message-path hot loop: a window of TCP messages is pumped
    // from node 0 to node 1 and echoed straight back. Every message
    // costs two data frames, two acks, two RTO arm/cancels and two
    // CPU-mediated deliveries, so this bounds how fast the phase-1
    // experiments can push intra-cluster traffic.
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

    constexpr int kWindow = 16;
    for (auto _ : state) {
        for (int i = 0; i < kWindow; ++i) {
            proto::AppMessage m;
            m.type = 1;
            m.bytes = 1024;
            a.send(1, std::move(m), {});
        }
        w.sim.events().runAll();
    }
    benchmark::DoNotOptimize(echoed);
    state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_TcpEchoFlood);

static void
BM_ViaEchoFlood(benchmark::State &state)
{
    // Same echo-flood shape over the VIA substrate: data frames ride
    // the SAN with hardware-ack outcome callbacks, and every delivery
    // returns a credit.
    TwoNodeWorld w;
    proto::ViaComm a(w.n0, proto::ViaConfig{});
    proto::ViaComm b(w.n1, proto::ViaConfig{});
    std::uint64_t echoed = 0;
    proto::CommCallbacks bcbs;
    bcbs.onMessage = [&](sim::NodeId peer, proto::AppMessage &&m) {
        b.consumed(peer);
        b.send(peer, std::move(m), {});
    };
    b.setCallbacks(bcbs);
    proto::CommCallbacks acbs;
    acbs.onMessage = [&](sim::NodeId peer, proto::AppMessage &&) {
        ++echoed;
        a.consumed(peer);
    };
    a.setCallbacks(acbs);
    a.start();
    b.start();
    a.connect(1);
    w.sim.runUntil(sim::sec(1));

    constexpr int kWindow = 16;
    for (auto _ : state) {
        for (int i = 0; i < kWindow; ++i) {
            proto::AppMessage m;
            m.type = 1;
            m.bytes = 1024;
            a.send(1, std::move(m), {});
        }
        w.sim.events().runAll();
    }
    benchmark::DoNotOptimize(echoed);
    state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_ViaEchoFlood);

static void
BM_DatagramFlood(benchmark::State &state)
{
    // The heartbeat/join path: fire-and-forget datagrams, delivered
    // through the receiver's CPU.
    TwoNodeWorld w;
    proto::TcpComm a(w.n0, proto::TcpConfig{});
    proto::TcpComm b(w.n1, proto::TcpConfig{});
    std::uint64_t got = 0;
    proto::CommCallbacks bcbs;
    bcbs.onDatagram = [&](sim::NodeId, std::uint32_t, auto &&) { ++got; };
    b.setCallbacks(bcbs);
    a.setCallbacks({});
    a.start();
    b.start();
    w.sim.runUntil(sim::sec(1));

    constexpr int kBurst = 16;
    for (auto _ : state) {
        for (int i = 0; i < kBurst; ++i)
            a.sendDatagram(1, 100);
        w.sim.events().runAll();
    }
    benchmark::DoNotOptimize(got);
    state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_DatagramFlood);

namespace {
/** A PRESS-sized flat message body (cache-update/file-data scale). */
struct ChurnBody
{
    std::uint64_t words[32];
};
} // namespace

static void
BM_MessagePayloadChurn(benchmark::State &state)
{
    // The isolated per-message allocation component of the message
    // path: create a flat body, attach it to a wire frame, take the
    // retransmit and receive-queue handle copies, read it at the
    // receiver, and drop everything. Before the payload pool this was
    // a make_shared heap allocation plus atomic refcount traffic on
    // every handle copy; now it is a size-classed free-list hit with
    // plain counters.
    sim::Simulation sim{7};
    std::uint64_t sink = 0;
    for (auto _ : state) {
        auto body = sim.makePayload<ChurnBody>();
        body->words[0] = 1;
        sim::RcAny wire = body; // frame attach
        sim::RcAny retx = wire; // retransmit attach
        sim::RcAny rcvq = retx; // receive-queue copy
        sink += rcvq.get<ChurnBody>()->words[0];
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
    state.counters["fresh_allocs"] =
        static_cast<double>(sim.pool().freshAllocs());
}
BENCHMARK(BM_MessagePayloadChurn);

static void
BM_DatagramPayloadFlood(benchmark::State &state)
{
    // The datagram path with a real body per message (the cluster's
    // cache-info/heartbeat traffic shape): per-message payload
    // allocation rides the full wire + CPU delivery path.
    TwoNodeWorld w;
    proto::TcpComm a(w.n0, proto::TcpConfig{});
    proto::TcpComm b(w.n1, proto::TcpConfig{});
    std::uint64_t got = 0;
    proto::CommCallbacks bcbs;
    bcbs.onDatagram = [&](sim::NodeId, std::uint32_t, sim::RcAny p) {
        got += p.get<ChurnBody>()->words[0];
    };
    b.setCallbacks(bcbs);
    a.setCallbacks({});
    a.start();
    b.start();
    w.sim.runUntil(sim::sec(1));

    constexpr int kBurst = 16;
    for (auto _ : state) {
        for (int i = 0; i < kBurst; ++i) {
            auto body = w.sim.makePayload<ChurnBody>();
            body->words[0] = 1;
            a.sendDatagram(1, 100, std::move(body));
        }
        w.sim.events().runAll();
    }
    benchmark::DoNotOptimize(got);
    state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_DatagramPayloadFlood);

static void
BM_NetworkFrameBlast(benchmark::State &state)
{
    // Raw fabric cost: Network::send with an outcome callback, no
    // protocol stack on top. Isolates the per-frame-hop overhead
    // (delivery closure + outcome bookkeeping).
    sim::Simulation sim{7};
    net::Network net{sim};
    net::PortId p0 = net.addPort();
    net::PortId p1 = net.addPort();
    std::uint64_t got = 0, acked = 0;
    net.setHandler(p1, [&](net::Frame &&) { ++got; });

    constexpr int kBurst = 64;
    for (auto _ : state) {
        for (int i = 0; i < kBurst; ++i) {
            net::Frame f;
            f.srcPort = p0;
            f.dstPort = p1;
            f.bytes = 512;
            net.send(std::move(f), [&](bool) { ++acked; });
        }
        sim.events().runAll();
    }
    benchmark::DoNotOptimize(got);
    benchmark::DoNotOptimize(acked);
    state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_NetworkFrameBlast);

static void
BM_TcpMessageRoundTrip(benchmark::State &state)
{
    TwoNodeWorld w;
    proto::TcpComm a(w.n0, proto::TcpConfig{});
    proto::TcpComm b(w.n1, proto::TcpConfig{});
    std::uint64_t received = 0;
    proto::CommCallbacks cbs;
    cbs.onMessage = [&](sim::NodeId, proto::AppMessage &&) {
        ++received;
    };
    b.setCallbacks(cbs);
    a.setCallbacks({});
    a.start();
    b.start();
    a.connect(1);
    w.sim.runUntil(sim::sec(1));

    for (auto _ : state) {
        proto::AppMessage m;
        m.type = 1;
        m.bytes = 8192;
        a.send(1, std::move(m), {});
        w.sim.events().runAll();
    }
    benchmark::DoNotOptimize(received);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcpMessageRoundTrip);

static void
BM_ViaMessageRoundTrip(benchmark::State &state)
{
    TwoNodeWorld w;
    proto::ViaComm a(w.n0, proto::ViaConfig{});
    proto::ViaComm b(w.n1, proto::ViaConfig{});
    std::uint64_t received = 0;
    proto::CommCallbacks cbs;
    cbs.onMessage = [&](sim::NodeId peer, proto::AppMessage &&) {
        ++received;
        b.consumed(peer);
    };
    b.setCallbacks(cbs);
    a.setCallbacks({});
    a.start();
    b.start();
    a.connect(1);
    w.sim.runUntil(sim::sec(1));

    for (auto _ : state) {
        proto::AppMessage m;
        m.type = 1;
        m.bytes = 8192;
        a.send(1, std::move(m), {});
        w.sim.events().runAll();
    }
    benchmark::DoNotOptimize(received);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ViaMessageRoundTrip);

static void
BM_ModelEvaluate(benchmark::State &state)
{
    model::FaultLoadParams params;
    std::vector<model::FaultClass> load = model::table3FaultLoad(params);
    model::MeasuredBehavior mb;
    mb.normalTput = 5000;
    mb.detected = true;
    mb.healed = false;
    mb.dur = {15, 10, 0, 15, 0, 0, 0};
    mb.tput = {100, 3800, 4400, 4600, 4600, 0, 3800};

    model::PerformabilityModel m(5000);
    for (const auto &fc : load)
        m.addFault(fc, mb);

    for (auto _ : state)
        benchmark::DoNotOptimize(m.evaluate());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelEvaluate);

static void
BM_LatencyHistogramRecord(benchmark::State &state)
{
    // The per-response observability cost: one log-linear bucket
    // insert per latency sample. This sits on the client hot path four
    // times per served request (total + three stages), so it must stay
    // a handful of nanoseconds. Values are pre-drawn so the benchmark
    // times the histogram, not the RNG.
    sim::LatencyHistogram h;
    sim::Rng rng(7);
    constexpr std::size_t kVals = 4096;
    std::vector<std::uint64_t> vals(kVals);
    for (auto &v : vals)
        v = rng.uniformInt(1, sim::sec(2));
    std::size_t i = 0;
    for (auto _ : state) {
        h.record(vals[i]);
        i = (i + 1) & (kVals - 1);
    }
    benchmark::DoNotOptimize(h.count());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyHistogramRecord);

static void
BM_SessionClientChurn(benchmark::State &state)
{
    // The session-client engine against a zero-delay stamp-echoing
    // server: think timers, session churn, request/response payloads
    // and four histogram inserts per served request. Bounds how much
    // simulated client traffic the heavy-traffic profiles can push.
    sim::Simulation s{7};
    net::Network net{s};
    std::vector<net::PortId> servers, clients;
    for (int i = 0; i < 4; ++i)
        servers.push_back(net.addPort());
    for (int i = 0; i < 2; ++i)
        clients.push_back(net.addPort());
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
            body->acceptedAt = s.now();
            body->serviceStartAt = s.now();
            r.payload = std::move(body);
            net.send(std::move(r));
        });
    }

    loadgen::WorkloadConfig cfg;
    cfg.requestRate = 2000;
    cfg.numFiles = 1000;
    auto profile = *loadgen::profileByName("sessions");
    loadgen::SessionFarm farm(s, net, servers, clients, cfg, profile);
    farm.start();
    s.runUntil(sim::sec(1)); // warm: pools, slabs, session table

    std::uint64_t served_before = farm.totalServed();
    for (auto _ : state)
        s.runUntil(s.now() + sim::msec(10));
    benchmark::DoNotOptimize(farm.totalServed());
    state.SetItemsProcessed(farm.totalServed() - served_before);
}
BENCHMARK(BM_SessionClientChurn);

namespace {

/** A light phase-1 world: full 4-node PRESS cluster, reduced load. */
exp::ExperimentConfig
snapshotBenchConfig(sim::Tick inject_at, sim::Tick tail)
{
    exp::ExperimentConfig cfg =
        exp::defaultExperimentConfig(press::Version::TcpPress);
    cfg.workload.requestRate = 600;
    cfg.workload.numFiles = 8000;
    cfg.injectAt = inject_at;
    cfg.duration = inject_at + tail;
    return cfg;
}

} // namespace

static void
BM_SnapshotFork(benchmark::State &state)
{
    // Pure rewind cost: restore a warmed 4-node PRESS world (event
    // slab, payload refs, protocol endpoints, caches, farms) back to
    // its snapshot. This is what replaces a whole warm-up phase per
    // fault run in the campaign.
    exp::ExperimentConfig cfg =
        snapshotBenchConfig(sim::sec(10), sim::sec(5));
    exp::Experiment e(cfg);
    e.warmUp();
    sim::Snapshot snap = e.snapshot();
    for (auto _ : state)
        e.forkFrom(snap);
    state.SetItemsProcessed(state.iterations());
    state.counters["states"] = static_cast<double>(snap.size());
}
BENCHMARK(BM_SnapshotFork);

static void
BM_WarmupAmortization(benchmark::State &state)
{
    // One full fault grid (all Table 2 kinds) over a warm-up-dominated
    // geometry: 180 s fault-free warm phase, 12 s measured tail per
    // fault. Arg 0 = cold (every fault warms its own world, the
    // pre-snapshot campaign); Arg 1 = forked (one warm-up, every fault
    // forked from its snapshot). time(0) / time(1) is the campaign
    // speedup on such a grid.
    const bool forked = state.range(0) != 0;
    const sim::Tick injectAt = sim::sec(180);
    const sim::Tick tail = sim::sec(12);
    std::uint64_t runs = 0;
    for (auto _ : state) {
        if (forked) {
            exp::Experiment e(
                snapshotBenchConfig(injectAt, tail));
            e.warmUp();
            sim::Snapshot snap = e.snapshot();
            for (fault::FaultKind k : fault::allFaultKinds) {
                exp::ExperimentConfig cfg =
                    snapshotBenchConfig(injectAt, tail);
                cfg.fault = fault::FaultSpec{};
                cfg.fault->kind = k;
                e.forkFrom(snap);
                benchmark::DoNotOptimize(
                    e.injectAndMeasure(cfg.fault, cfg.duration));
                ++runs;
            }
        } else {
            for (fault::FaultKind k : fault::allFaultKinds) {
                exp::ExperimentConfig cfg =
                    snapshotBenchConfig(injectAt, tail);
                cfg.fault = fault::FaultSpec{};
                cfg.fault->kind = k;
                benchmark::DoNotOptimize(exp::runExperiment(cfg));
                ++runs;
            }
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_WarmupAmortization)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

BENCHMARK_MAIN();
