/**
 * @file
 * Tests for the client farm: Poisson arrival rate, round-robin DNS,
 * timeout accounting, interaction with unresponsive servers, and the
 * latency timeline.
 */

#include <gtest/gtest.h>

#include <map>

#include "press/messages.hh"
#include "sim/simulation.hh"
#include "loadgen/client_farm.hh"

using namespace performa;
using namespace performa::sim;

namespace {

/** A bare network with scripted "server" ports. */
struct FarmWorld
{
    Simulation s{3};
    net::Network n{s};
    std::vector<net::PortId> servers;
    std::vector<net::PortId> clients;
    std::map<net::PortId, int> requestsPerServer;
    bool respond = true;

    FarmWorld()
    {
        for (int i = 0; i < 4; ++i) {
            net::PortId p = n.addPort();
            servers.push_back(p);
            n.setHandler(p, [this, p](net::Frame &&f) {
                ++requestsPerServer[p];
                if (!respond)
                    return;
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
                r.payload = std::move(body);
                n.send(std::move(r));
            });
        }
        for (int i = 0; i < 2; ++i)
            clients.push_back(n.addPort());
    }
};

} // namespace

TEST(ClientFarm, OfferedRateTracksTarget)
{
    FarmWorld w;
    loadgen::WorkloadConfig cfg;
    cfg.requestRate = 2000;
    cfg.numFiles = 1000;
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, cfg);
    farm.start();
    w.s.runUntil(sec(20));
    double rate = farm.offered().meanRate(sec(0), sec(20));
    EXPECT_NEAR(rate, 2000, 100);
}

TEST(ClientFarm, AllServedWhenServersRespond)
{
    FarmWorld w;
    loadgen::WorkloadConfig cfg;
    cfg.requestRate = 500;
    cfg.numFiles = 100;
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, cfg);
    farm.start();
    w.s.runUntil(sec(10));
    farm.stop();
    w.s.runUntil(sec(20));
    EXPECT_EQ(farm.totalServed(), farm.totalOffered());
    EXPECT_EQ(farm.totalFailed(), 0u);
    EXPECT_EQ(farm.pendingCount(), 0u);
}

TEST(ClientFarm, RoundRobinSpreadsAcrossServers)
{
    FarmWorld w;
    loadgen::WorkloadConfig cfg;
    cfg.requestRate = 1000;
    cfg.numFiles = 100;
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, cfg);
    farm.start();
    w.s.runUntil(sec(8));
    int min = 1 << 30, max = 0;
    for (auto p : w.servers) {
        min = std::min(min, w.requestsPerServer[p]);
        max = std::max(max, w.requestsPerServer[p]);
    }
    EXPECT_GT(min, 0);
    EXPECT_LE(max - min, 1); // strict round robin
}

TEST(ClientFarm, SilentServerMeansTimeoutFailures)
{
    FarmWorld w;
    w.respond = false;
    loadgen::WorkloadConfig cfg;
    cfg.requestRate = 500;
    cfg.numFiles = 100;
    cfg.requestTimeout = sec(6);
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, cfg);
    farm.start();
    w.s.runUntil(sec(5));
    EXPECT_EQ(farm.totalFailed(), 0u); // nothing expired yet
    w.s.runUntil(sec(30));
    farm.stop();
    w.s.runUntil(sec(40));
    EXPECT_EQ(farm.totalServed(), 0u);
    EXPECT_EQ(farm.totalFailed(), farm.totalOffered());
}

TEST(ClientFarm, LateResponseCountsAsFailure)
{
    FarmWorld w;
    w.respond = false;
    loadgen::WorkloadConfig cfg;
    cfg.requestRate = 100;
    cfg.numFiles = 10;
    cfg.requestTimeout = sec(2);
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, cfg);

    // Respond manually after the deadline.
    std::vector<net::Frame> pending;
    for (auto p : w.servers) {
        w.n.setHandler(p, [&pending](net::Frame &&f) {
            pending.push_back(std::move(f));
        });
    }
    farm.start();
    w.s.runUntil(sec(1));
    farm.stop();
    w.s.runUntil(sec(5)); // everything expired
    std::uint64_t failed = farm.totalFailed();
    EXPECT_GT(failed, 0u);
    for (auto &f : pending) {
        auto *req = f.payload.get<press::ClientRequestBody>();
        net::Frame r;
        r.srcPort = f.dstPort;
        r.dstPort = req->replyPort;
        r.proto = net::Proto::Client;
        r.kind = press::ClientResponse;
        r.bytes = 100;
        auto body = w.s.makePayload<press::ClientResponseBody>();
        body->req = req->req;
        r.payload = std::move(body);
        w.n.send(std::move(r));
    }
    w.s.runUntil(sec(10));
    EXPECT_EQ(farm.totalServed(), 0u); // late data is ignored
    EXPECT_EQ(farm.totalFailed(), failed);
}

TEST(ClientFarm, PopularityFollowsZipf)
{
    FarmWorld w;
    loadgen::WorkloadConfig cfg;
    cfg.requestRate = 4000;
    cfg.numFiles = 1000;
    cfg.zipfAlpha = 0.8;
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, cfg);

    std::map<sim::FileId, int> hits;
    for (auto p : w.servers) {
        w.n.setHandler(p, [&hits](net::Frame &&f) {
            auto *req = f.payload.get<press::ClientRequestBody>();
            ++hits[req->file];
        });
    }
    farm.start();
    w.s.runUntil(sec(10));
    // File 0 should dominate: compare to a mid-rank file.
    EXPECT_GT(hits[0], 5 * std::max(1, hits[500]));
}

TEST(ClientFarm, LatencyStatsTrackServedRequests)
{
    FarmWorld w;
    loadgen::WorkloadConfig cfg;
    cfg.requestRate = 500;
    cfg.numFiles = 100;
    loadgen::ClientFarm farm(w.s, w.n, w.servers, w.clients, cfg);
    farm.start();
    w.s.runUntil(sec(5));
    farm.stop();
    w.s.runUntil(sec(10));
    const auto &total = farm.timeline().cumulative(LatencyStage::Total);
    EXPECT_EQ(total.count(), farm.totalServed());
    // Round trip over the ideal network: sub-millisecond.
    EXPECT_GT(total.mean(), 0.0);
    EXPECT_LT(total.mean(), 1000.0);
    EXPECT_LE(total.mean(), static_cast<double>(total.maxRecorded()));
}
