/**
 * @file
 * Tests for the loadgen subsystem: the profile registry, rate
 * modulation, Pareto file sizes, the split RNG stream contract, the
 * client farm's deadline FIFO (constant heap under a flood, request
 * accounting, same-tick expiry order, fork), the session farm
 * (closed-loop throttling, stop and abandoned-request accounting, and
 * the same deadline-FIFO checks for both of its timeout classes), and
 * latency recording.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>

#include "loadgen/client_farm.hh"
#include "loadgen/generator.hh"
#include "loadgen/load_profile.hh"
#include "loadgen/session_farm.hh"
#include "press/messages.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"

using namespace performa;
using namespace performa::sim;

namespace {

/** A bare network with scripted "server" ports that echo the
 *  request's send time like the PRESS server does. */
struct StampWorld
{
    Simulation s{3};
    net::Network n{s};
    std::vector<net::PortId> servers;
    std::vector<net::PortId> clients;
    std::map<net::PortId, int> requestsPerServer;
    bool respond = true;
    /** Stop answering a server after this many requests (-1 = never). */
    int answersPerServer = -1;
    /** The reply leaves this long after the request arrives (0 = at
     *  once). */
    Tick replyDelay = 0;

    StampWorld()
    {
        for (int i = 0; i < 4; ++i) {
            net::PortId p = n.addPort();
            servers.push_back(p);
            n.setHandler(p, [this, p](net::Frame &&f) {
                int seen = ++requestsPerServer[p];
                if (!respond ||
                    (answersPerServer >= 0 && seen > answersPerServer))
                    return;
                auto req = f.payload.cast<press::ClientRequestBody>();
                auto reply = [this, p, req] {
                    net::Frame r;
                    r.srcPort = p;
                    r.dstPort = req->replyPort;
                    r.proto = net::Proto::Client;
                    r.kind = press::ClientResponse;
                    r.bytes = 8192;
                    auto body =
                        s.makePayload<press::ClientResponseBody>();
                    body->req = req->req;
                    body->sentAt = req->sentAt;
                    r.payload = std::move(body);
                    n.send(std::move(r));
                };
                if (replyDelay == 0)
                    reply();
                else
                    s.scheduleIn(replyDelay, reply);
            });
        }
        for (int i = 0; i < 2; ++i)
            clients.push_back(n.addPort());
    }
};

loadgen::WorkloadConfig
smallConfig()
{
    loadgen::WorkloadConfig cfg;
    cfg.requestRate = 500;
    cfg.numFiles = 1000;
    return cfg;
}

/** The "sessions" profile with a fixed population and think time. */
loadgen::LoadProfileSpec
sessionProfile(std::size_t sessions, Tick think)
{
    loadgen::LoadProfileSpec p = *loadgen::profileByName("sessions");
    p.sessionCount = sessions;
    p.meanThink = think;
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------

TEST(LoadProfile, RegistryKnowsTheBuiltins)
{
    for (const char *name :
         {"steady", "sessions", "pareto", "diurnal", "flashcrowd"}) {
        auto p = loadgen::profileByName(name);
        ASSERT_TRUE(p.has_value()) << name;
        EXPECT_EQ(p->name, name);
    }
    EXPECT_FALSE(loadgen::profileByName("nosuch").has_value());
    EXPECT_TRUE(loadgen::profileByName("steady")->isDefault());
    EXPECT_FALSE(loadgen::profileByName("flashcrowd")->isDefault());
    EXPECT_TRUE(loadgen::profileByName("sessions")->sessions);
    EXPECT_TRUE(loadgen::profileByName("pareto")->pareto.enabled);
}

TEST(LoadProfile, FlashCrowdRampHoldAndDecay)
{
    loadgen::LoadProfileSpec p;
    p.rateScale = 1.0;
    p.flash.at = sec(100);
    p.flash.ramp = sec(10);
    p.flash.hold = sec(30);
    p.flash.peak = 3.0;

    EXPECT_DOUBLE_EQ(loadgen::rateMultiplierAt(p, sec(50)), 1.0);
    // Halfway up the ramp: 1 + (3-1)/2.
    EXPECT_NEAR(loadgen::rateMultiplierAt(p, sec(105)), 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(loadgen::rateMultiplierAt(p, sec(120)), 3.0);
    // Halfway down the back ramp.
    EXPECT_NEAR(loadgen::rateMultiplierAt(p, sec(145)), 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(loadgen::rateMultiplierAt(p, sec(200)), 1.0);
}

TEST(LoadProfile, DiurnalOscillatesAroundBase)
{
    loadgen::LoadProfileSpec p;
    p.diurnal.period = sec(100);
    p.diurnal.amplitude = 0.5;

    double lo = 10, hi = 0, sum = 0;
    int nsamples = 100;
    for (int i = 0; i < nsamples; ++i) {
        double m = loadgen::rateMultiplierAt(p, sec(i));
        lo = std::min(lo, m);
        hi = std::max(hi, m);
        sum += m;
    }
    EXPECT_NEAR(lo, 0.5, 0.05);
    EXPECT_NEAR(hi, 1.5, 0.05);
    EXPECT_NEAR(sum / nsamples, 1.0, 0.05);
}

TEST(LoadProfile, ParetoSizesDeterministicHeavyTailedClamped)
{
    loadgen::ParetoSizes spec;
    spec.enabled = true;

    // A property of the file set: independent of any RNG.
    EXPECT_EQ(loadgen::paretoFileBytes(spec, 17),
              loadgen::paretoFileBytes(spec, 17));

    double sum = 0;
    std::uint64_t maxSeen = 0;
    const int n = 20000;
    for (int f = 0; f < n; ++f) {
        std::uint64_t b = loadgen::paretoFileBytes(spec, f);
        EXPECT_GE(b, 1u);
        EXPECT_LE(b, spec.maxBytes);
        sum += static_cast<double>(b);
        maxSeen = std::max(maxSeen, b);
    }
    // Mean lands near the target (clipping pulls it slightly down).
    EXPECT_NEAR(sum / n, static_cast<double>(spec.meanBytes),
                0.25 * static_cast<double>(spec.meanBytes));
    // Heavy tail: some file is far beyond the mean.
    EXPECT_GT(maxSeen, 10 * spec.meanBytes);

    auto fn = loadgen::makeFileSizeFn(spec);
    ASSERT_TRUE(fn);
    EXPECT_EQ(fn(99), loadgen::paretoFileBytes(spec, 99));
    EXPECT_FALSE(loadgen::makeFileSizeFn(loadgen::ParetoSizes{}));
}

// ---------------------------------------------------------------------
// Split RNG contract
// ---------------------------------------------------------------------

TEST(SplitRng, SplitStreamDoesNotPerturbTheSharedStream)
{
    Simulation a(99), b(99);

    // b creates and drains a split stream; a never does.
    Rng split = b.splitRng(loadgen::kLoadgenRngSalt);
    for (int i = 0; i < 1000; ++i)
        (void)split.uniform();

    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.rng().uniform(), b.rng().uniform());
}

TEST(SplitRng, DistinctSaltsGiveDistinctStreams)
{
    Simulation s(99);
    Rng r1 = s.splitRng(1), r2 = s.splitRng(2), r1b = s.splitRng(1);
    bool anyDiff = false;
    for (int i = 0; i < 32; ++i) {
        std::uint64_t a = r1.uniformInt(0, 1u << 30);
        std::uint64_t b = r2.uniformInt(0, 1u << 30);
        EXPECT_EQ(a, r1b.uniformInt(0, 1u << 30)); // same salt reproduces
        anyDiff = anyDiff || a != b;
    }
    EXPECT_TRUE(anyDiff);
}

// ---------------------------------------------------------------------
// Latency recording
// ---------------------------------------------------------------------

TEST(RecordResponseLatency, RecordsTheTimeSinceTheEchoedSend)
{
    StageLatencyTimeline tl;
    press::ClientResponseBody body;
    body.sentAt = msec(100);

    loadgen::recordResponseLatency(tl, msec(125), body);
    LatencyHistogram all = tl.window(LatencyStage::Total, 0, sec(1));
    EXPECT_EQ(all.count(), 1u);
    EXPECT_DOUBLE_EQ(all.quantile(1.0), static_cast<double>(msec(25)));
}

// ---------------------------------------------------------------------
// ClientFarm latency recording
// ---------------------------------------------------------------------

TEST(ClientFarmLatency, EveryServedRequestLandsInTheTimeline)
{
    StampWorld w;
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, smallConfig());
    farm.start();
    w.s.runUntil(sec(10));
    farm.stop();
    w.s.runUntil(sec(12));

    EXPECT_GT(farm.totalServed(), 0u);
    EXPECT_EQ(farm.timeline().window(LatencyStage::Total, 0, sec(13)).count(),
              farm.totalServed());
}

// ---------------------------------------------------------------------
// ClientFarm request expiry
// ---------------------------------------------------------------------

TEST(ClientFarm, UnansweredFloodKeepsTheHeapConstant)
{
    // 5000 req/s against silent servers for 10 s: 30 000 requests are
    // awaiting their 6 s deadline at once. Their expiries wait in the
    // farm's deadline FIFO; the event heap holds only the armed head,
    // the next arrival and a few frames in flight.
    StampWorld w;
    w.respond = false;
    loadgen::WorkloadConfig cfg = smallConfig();
    cfg.requestRate = 5000;
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, cfg);
    farm.start();
    std::size_t peak_heap = 0;
    for (Tick t = msec(100); t <= sec(10); t += msec(100)) {
        w.s.runUntil(t);
        peak_heap = std::max(peak_heap, w.s.events().heapSize());
        ASSERT_EQ(farm.totalOffered(), farm.totalServed() +
                                           farm.totalFailed() +
                                           farm.pendingCount())
            << "at " << t;
    }
    EXPECT_GT(farm.pendingCount(), 25000u);
    EXPECT_GT(farm.totalFailed(), 15000u);
    EXPECT_EQ(farm.totalServed(), 0u);
    EXPECT_LT(peak_heap, 32u);
}

TEST(ClientFarm, AccountingSumsThroughoutWhenAnswersComeAndGo)
{
    // Servers answer, fall silent, then answer slowly (past the
    // deadline for some requests): every request is served, failed or
    // pending at every step, and a late answer never counts.
    StampWorld w;
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, smallConfig());
    farm.start();
    for (Tick t = msec(100); t <= sec(30); t += msec(100)) {
        w.respond = t < sec(5) || t >= sec(12);
        w.replyDelay = t >= sec(20) ? msec(5900) + (t % sec(1)) / 5 : 0;
        w.s.runUntil(t);
        ASSERT_EQ(farm.totalOffered(), farm.totalServed() +
                                           farm.totalFailed() +
                                           farm.pendingCount())
            << "at " << t;
    }
    farm.stop();
    w.s.runUntil(sec(40));
    EXPECT_EQ(farm.pendingCount(), 0u);
    EXPECT_EQ(farm.totalOffered(),
              farm.totalServed() + farm.totalFailed());
    EXPECT_GT(farm.totalServed(), 5000u);
    EXPECT_GT(farm.totalFailed(), 3000u);
}

TEST(ClientFarm, ExpiryKeepsTheSameTickPlaceOfItsRequest)
{
    // An event scheduled right after a request is issued, for the
    // tick of that request's deadline, must run after its expiry, as
    // it would if the expiry had been scheduled when the request was
    // issued. The second request's expiry is armed only when the
    // first one's fires, so it must fire under the seq it reserved.
    StampWorld w;
    w.respond = false;
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, smallConfig());
    farm.start();
    Tick t = 0;
    while (farm.totalOffered() < 2)
        w.s.runUntil(++t);
    std::uint64_t issued = farm.totalOffered();
    std::uint64_t failed_seen = 0;
    w.s.schedule(t + farm.config().requestTimeout,
                 [&] { failed_seen = farm.totalFailed(); });
    w.s.runUntil(t + farm.config().requestTimeout);
    EXPECT_EQ(failed_seen, issued);
}

TEST(ClientFarm, AnsweredRequestsArmAboutOneExpiryPerTimeout)
{
    // Replies come back at once, so nearly every deadline belongs to
    // an answered request. Those are skipped when an expiry passes
    // over them: about one expiry event fires per timeout window, not
    // one per request.
    StampWorld w;
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, smallConfig());
    farm.start();
    w.s.runUntil(sec(60));
    farm.stop();
    Tick duration = sec(60) + farm.config().requestTimeout + sec(1);
    w.s.runUntil(duration);
    ASSERT_EQ(farm.totalFailed(), 0u);
    ASSERT_EQ(farm.pendingCount(), 0u);
    ASSERT_GT(farm.totalServed(), 25000u);
    // Every other event is accounted for: one arrival per request
    // (the last one a stale tick after stop()), and the request and
    // reply frames.
    std::uint64_t offered = farm.totalOffered();
    std::uint64_t expiries = w.s.events().executed() - 3 * offered;
    EXPECT_LE(expiries, duration / farm.config().requestTimeout + 1);
}

TEST(ClientFarm, ForkRestoresTheDeadlineFifo)
{
    // Capture mid-run with thousands of requests awaiting deadlines,
    // run on, then fork back: the second run must replay the first
    // exactly, expiry for expiry.
    StampWorld w;
    w.replyDelay = msec(4000); // thousands of requests in flight
    loadgen::WorkloadConfig cfg = smallConfig();
    cfg.requestRate = 2000;
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, cfg);
    sim::SnapshotRegistry reg;
    reg.attach(w.s);
    reg.attach(w.n);
    farm.registerWith(reg);
    farm.start();
    w.s.runUntil(sec(8));
    std::size_t pending_at_capture = farm.pendingCount();
    ASSERT_GT(pending_at_capture, 5000u);
    sim::Snapshot snap = reg.capture();

    auto runOn = [&](bool respond) {
        w.respond = respond;
        w.s.runUntil(sec(20));
        return std::array<std::uint64_t, 5>{
            farm.totalOffered(), farm.totalServed(), farm.totalFailed(),
            farm.pendingCount(), w.s.events().executed()};
    };
    auto first = runOn(true);

    // A divergent run in between must leave no trace.
    reg.forkFrom(snap);
    auto silent = runOn(false);
    EXPECT_NE(silent, first);

    reg.forkFrom(snap);
    EXPECT_EQ(farm.pendingCount(), pending_at_capture);
    EXPECT_EQ(w.s.now(), sec(8));
    auto second = runOn(true);
    EXPECT_EQ(first, second);
    EXPECT_EQ(second[0], second[1] + second[2] + second[3]);
}

// ---------------------------------------------------------------------
// SessionFarm
// ---------------------------------------------------------------------

TEST(SessionFarm, ServesAndChurnsSessions)
{
    StampWorld w;
    auto profile = *loadgen::profileByName("sessions");
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), profile);
    EXPECT_GT(farm.sessionCount(), 0u);
    farm.start();
    w.s.runUntil(sec(30));
    farm.stop();
    w.s.runUntil(sec(32));

    EXPECT_GT(farm.totalServed(), 0u);
    EXPECT_EQ(farm.totalServed(), farm.totalOffered());
    EXPECT_EQ(farm.totalFailed(), 0u);
    EXPECT_GT(farm.completedSessions(), 0u);

    // Each served request records its total latency.
    EXPECT_EQ(farm.timeline().window(LatencyStage::Total, 0, sec(33)).count(),
              farm.totalServed());
}

TEST(SessionFarm, DeterministicForSameSeed)
{
    auto run = [] {
        StampWorld w;
        auto profile = *loadgen::profileByName("sessions");
        loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                                  smallConfig(), profile);
        farm.start();
        w.s.runUntil(sec(20));
        farm.stop();
        return std::tuple(farm.totalServed(), farm.totalOffered(),
                          farm.completedSessions());
    };
    EXPECT_EQ(run(), run());
}

TEST(SessionFarm, TimeoutsAbandonTheSessionAndReconnect)
{
    StampWorld w;
    w.respond = false;
    auto profile = *loadgen::profileByName("sessions");
    loadgen::WorkloadConfig cfg = smallConfig();
    cfg.requestRate = 50;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients, cfg, profile);
    farm.start();
    w.s.runUntil(sec(30));
    farm.stop();
    w.s.runUntil(sec(40));

    EXPECT_GT(farm.totalFailed(), 0u);
    EXPECT_EQ(farm.totalServed(), 0u);
    // Abandoned sessions count as completed: the seat was re-used.
    EXPECT_GT(farm.completedSessions(), 0u);
}

TEST(SessionFarm, SelfThrottlesWhenServerIsSilent)
{
    // Each session has one request outstanding, and a timeout ends
    // the session: failures are bounded by sessions x (run / connect
    // timeout), unlike the open-loop farm which keeps firing.
    StampWorld w;
    w.respond = false;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionProfile(30, msec(10)));
    farm.start();
    w.s.runUntil(sec(20));
    EXPECT_LE(farm.totalFailed(), 30u * 11u);
    EXPECT_GT(farm.totalFailed(), 30u * 5u);
    EXPECT_EQ(farm.totalServed(), 0u);
}

TEST(SessionFarm, StopCeasesActivity)
{
    StampWorld w;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionProfile(10, msec(10)));
    farm.start();
    w.s.runUntil(sec(2));
    farm.stop();
    std::uint64_t served = farm.totalServed();
    std::uint64_t offered = farm.totalOffered();
    ASSERT_GT(served, 0u);
    w.s.runUntil(sec(10));
    EXPECT_EQ(farm.totalServed(), served);
    EXPECT_EQ(farm.totalOffered(), offered);
}

TEST(SessionFarm, ServedRequestsDoNotLeakExpiryTimers)
{
    // Every request arms a 2 s or 6 s expiry that its response
    // cancels; none may linger in the event heap until its due time.
    StampWorld w;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionProfile(50, msec(10)));
    farm.start();
    w.s.runUntil(sec(5));
    ASSERT_GT(farm.totalServed(), 10000u);
    // Live events: one think or expiry timer per session plus a
    // handful of in-flight frames — nothing proportional to requests
    // served. The heap is bounded too: cancelled entries are
    // compacted away.
    EXPECT_LT(w.s.events().pending(), farm.sessionCount() * 3);
    EXPECT_LT(w.s.events().heapSize(), farm.sessionCount() * 6);
}

TEST(SessionFarm, StopMidFlightCountsAbandonedRequests)
{
    // Requests in flight at stop() are neither served nor failed; they
    // count as abandoned so the accounting still sums to the offered
    // load.
    StampWorld w;
    w.replyDelay = msec(50); // long enough to guarantee in-flight
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionProfile(20, msec(10)));
    farm.start();
    w.s.runUntil(msec(500) + msec(25)); // mid service window
    ASSERT_GT(farm.pendingCount(), 0u);
    farm.stop();
    EXPECT_EQ(farm.pendingCount(), 0u);
    EXPECT_GT(farm.totalAbandoned(), 0u);
    EXPECT_EQ(farm.totalOffered(), farm.totalServed() +
                                       farm.totalFailed() +
                                       farm.totalAbandoned());
    // Abandoned expiries were cancelled and late responses dropped:
    // running past the timeout window changes nothing.
    std::uint64_t served = farm.totalServed();
    std::uint64_t failed = farm.totalFailed();
    w.s.runUntil(sec(30));
    EXPECT_EQ(farm.totalServed(), served);
    EXPECT_EQ(farm.totalFailed(), failed);
}

TEST(SessionFarm, AccountingSumsWhileRunning)
{
    StampWorld w;
    w.replyDelay = msec(1);
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionProfile(30, msec(10)));
    farm.start();
    w.s.runUntil(sec(3));
    EXPECT_GT(farm.totalServed(), 0u);
    EXPECT_EQ(farm.totalOffered(),
              farm.totalServed() + farm.totalFailed() +
                  farm.totalAbandoned() + farm.pendingCount());
}

TEST(SessionFarm, UsersCycleThroughRequests)
{
    StampWorld w;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionProfile(50, msec(10)));
    farm.start();
    w.s.runUntil(sec(10));
    // ~50 sessions / (10ms think + ~0.5ms service) ~ 4700 req/s; allow
    // broad slack, the point is sustained cycling.
    EXPECT_GT(farm.totalServed(), 20000u);
    EXPECT_EQ(farm.totalFailed(), 0u);
}

TEST(SessionFarm, ThroughputScalesWithSessions)
{
    double rates[2];
    int idx = 0;
    for (std::size_t sessions : {20, 80}) {
        StampWorld w;
        loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                                  smallConfig(),
                                  sessionProfile(sessions, msec(20)));
        farm.start();
        w.s.runUntil(sec(10));
        rates[idx++] = farm.served().meanRate(sec(2), sec(10));
    }
    EXPECT_GT(rates[1], 3.0 * rates[0]);
}

TEST(SessionFarm, LatencyReflectsServiceDelay)
{
    StampWorld w;
    w.replyDelay = msec(5);
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionProfile(10, msec(20)));
    farm.start();
    w.s.runUntil(sec(10));
    LatencyHistogram total =
        farm.timeline().window(LatencyStage::Total, 0, sec(11));
    ASSERT_EQ(total.count(), farm.totalServed());
    EXPECT_GT(total.mean(), 5000.0); // >= the 5 ms service
    EXPECT_LT(total.mean(), 8000.0);
}

// ---------------------------------------------------------------------
// SessionFarm request expiry: one deadline FIFO per timeout class
// ---------------------------------------------------------------------

TEST(SessionFarm, UnansweredFloodKeepsTheHeapConstant)
{
    // 1000 users, 100 ms think; the servers answer for 2 s, then fall
    // silent. Users under way wait out the 6 s request timeout, and
    // the sessions that replace them the 2 s connect timeout, again
    // and again. Nearly every user waits on a deadline, yet the heap
    // holds only the two armed FIFO heads, the users thinking (many
    // at once right after a wave of timeouts) and a few frames in
    // flight. An expiry event per waiting user would
    // hold about 2 000 entries at the peak here (1 957 measured).
    StampWorld w;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionProfile(1000, msec(100)));
    farm.start();
    std::size_t peak_heap = 0;
    for (Tick t = msec(100); t <= sec(20); t += msec(100)) {
        w.respond = t <= sec(2);
        w.s.runUntil(t);
        if (t >= sec(3))
            peak_heap = std::max(peak_heap, w.s.events().heapSize());
        ASSERT_EQ(farm.totalOffered(),
                  farm.totalServed() + farm.totalFailed() +
                      farm.totalAbandoned() + farm.pendingCount())
            << "at " << t;
    }
    EXPECT_GT(farm.pendingCount(), 900u);
    EXPECT_GT(farm.totalFailed(), 4u * farm.sessionCount());
    EXPECT_LT(peak_heap, farm.sessionCount() / 2);
}

TEST(SessionFarm, ExpiryKeepsTheSameTickPlaceOfItsRequest)
{
    // For each timeout class: two users' requests go unanswered, and
    // an event scheduled right after the second is issued, for the
    // tick of its deadline, must run after both expiries, as it would
    // if each expiry had been scheduled when its request was issued.
    // The second expiry is armed only when the first one fires, so it
    // must fire under the seq it reserved.
    auto probe = [](bool reused_connection) {
        // Users stick to their own server (round-robin), and each
        // server answers only its first request.
        StampWorld w;
        w.respond = reused_connection;
        w.answersPerServer = 1;
        auto profile = sessionProfile(2, msec(100));
        profile.meanRequestsPerSession = 1000;
        loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                                  smallConfig(), profile);
        farm.start();
        // Each user's first request is answered when the servers
        // respond; its next one rides the reused connection. The last
        // request of each user is left unanswered.
        std::uint64_t want = reused_connection ? 4 : 2;
        Tick t = 0;
        while (farm.totalOffered() < want)
            w.s.runUntil(++t);
        Tick timeout = reused_connection ? farm.config().requestTimeout
                                         : farm.config().connectTimeout;
        std::uint64_t failed_seen = 0;
        w.s.schedule(t + timeout, [&] { failed_seen = farm.totalFailed(); });
        w.s.runUntil(t + timeout);
        EXPECT_EQ(farm.totalServed(), reused_connection ? 2u : 0u);
        return failed_seen;
    };
    EXPECT_EQ(probe(false), 2u) << "connect timeout";
    EXPECT_EQ(probe(true), 2u) << "request timeout";
}

TEST(SessionFarm, AnsweredRequestsArmAboutOneExpiryPerTimeout)
{
    // Replies come back at once, so nearly every deadline belongs to
    // an answered request. Those are skipped when an expiry passes
    // over them: about one expiry event fires per timeout window and
    // class, not one per request.
    StampWorld w;
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionProfile(20, msec(20)));
    farm.start();
    w.s.runUntil(sec(60));
    farm.stop();
    const loadgen::WorkloadConfig &cfg = farm.config();
    Tick duration = sec(60) + cfg.requestTimeout + sec(1);
    w.s.runUntil(duration);
    ASSERT_EQ(farm.totalFailed(), 0u);
    ASSERT_GT(farm.totalServed(), 50000u);
    // Every other event is accounted for: one think tick and two
    // frames per request, and one stale think tick for each user who
    // was thinking, not waiting, at stop().
    std::uint64_t offered = farm.totalOffered();
    std::uint64_t stale_thinks = farm.sessionCount() - farm.totalAbandoned();
    std::uint64_t expiries =
        w.s.events().executed() - 3 * offered - stale_thinks;
    EXPECT_LE(expiries, duration / cfg.connectTimeout +
                            duration / cfg.requestTimeout + 2);
}

TEST(SessionFarm, ForkRestoresTheDeadlineFifos)
{
    // Capture mid-run with thousands of requests awaiting deadlines in
    // both classes, run on, then fork back: the second run must replay
    // the first exactly, expiry for expiry.
    StampWorld w;
    w.replyDelay = msec(1500); // within both timeouts
    loadgen::SessionFarm farm(w.s, w.n, w.servers, w.clients,
                              smallConfig(), sessionProfile(3000, msec(250)));
    sim::SnapshotRegistry reg;
    reg.attach(w.s);
    reg.attach(w.n);
    farm.registerWith(reg);
    farm.start();
    w.s.runUntil(sec(8));
    std::size_t pending_at_capture = farm.pendingCount();
    ASSERT_GT(pending_at_capture, 2000u);
    sim::Snapshot snap = reg.capture();

    auto runOn = [&](bool respond) {
        w.respond = respond;
        w.s.runUntil(sec(20));
        return std::array<std::uint64_t, 6>{
            farm.totalOffered(), farm.totalServed(), farm.totalFailed(),
            farm.pendingCount(), farm.completedSessions(),
            w.s.events().executed()};
    };
    auto first = runOn(true);
    ASSERT_EQ(first[2], 0u);

    // A divergent run in between must leave no trace: both classes
    // time out in it.
    reg.forkFrom(snap);
    auto silent = runOn(false);
    EXPECT_GT(silent[2], 2u * farm.sessionCount());

    reg.forkFrom(snap);
    EXPECT_EQ(farm.pendingCount(), pending_at_capture);
    EXPECT_EQ(w.s.now(), sec(8));
    auto second = runOn(true);
    EXPECT_EQ(first, second);
    EXPECT_EQ(second[0], second[1] + second[2] + second[3]);
}

// ---------------------------------------------------------------------
// makeLoadGenerator
// ---------------------------------------------------------------------

TEST(MakeLoadGenerator, PicksTheGeneratorForTheProfile)
{
    StampWorld w;
    auto open = loadgen::makeLoadGenerator(
        w.s, w.n, w.servers, w.clients, smallConfig(),
        *loadgen::profileByName("steady"));
    auto sess = loadgen::makeLoadGenerator(
        w.s, w.n, w.servers, w.clients, smallConfig(),
        *loadgen::profileByName("sessions"));
    EXPECT_NE(dynamic_cast<loadgen::ClientFarm *>(open.get()), nullptr);
    EXPECT_NE(dynamic_cast<loadgen::SessionFarm *>(sess.get()), nullptr);
}

TEST(MakeLoadGenerator, FlashCrowdRaisesOfferedRateDuringBurst)
{
    StampWorld w;
    auto profile = *loadgen::profileByName("flashcrowd");
    auto gen = loadgen::makeLoadGenerator(w.s, w.n, w.servers, w.clients,
                                          smallConfig(), profile);
    gen->start();
    w.s.runUntil(sec(80));
    gen->stop();

    // Base (scaled) rate before the burst at t=50s; peak inside it.
    double base = gen->offered().meanRate(sec(10), sec(40));
    double burst = gen->offered().meanRate(sec(62), sec(78));
    EXPECT_GT(burst, base * 1.5);
}
