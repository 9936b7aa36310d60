/**
 * @file
 * Unit tests for the node lifecycle (crash/reboot/freeze) and the
 * monitor-daemon restart policies.
 */

#include <gtest/gtest.h>

#include "os/node.hh"
#include "sim/simulation.hh"

using namespace performa;
using namespace performa::sim;

namespace {

/** Scripted service recording lifecycle calls. */
struct StubService : osim::Service
{
    int starts = 0, stops = 0, conts = 0, terms = 0;
    bool silentLast = false;
    bool alive_ = false;

    void start() override
    {
        ++starts;
        alive_ = true;
    }
    void sigStop() override { ++stops; }
    void sigCont() override { ++conts; }
    void terminate(bool silent) override
    {
        ++terms;
        silentLast = silent;
        alive_ = false;
    }
    bool alive() const override { return alive_; }
};

struct World
{
    Simulation s{1};
    net::Network intra{s}, client{s};
    osim::NodeConfig cfg;
    std::unique_ptr<osim::Node> node;
    StubService svc;

    World()
    {
        cfg.serviceStartDelay = sec(5);
        cfg.serviceRestartDelay = sec(10);
        node = std::make_unique<osim::Node>(s, 0, intra, client, cfg);
        node->attachService(&svc);
    }
};

} // namespace

TEST(Node, StartsUp)
{
    World w;
    EXPECT_TRUE(w.node->up());
    EXPECT_EQ(w.node->incarnation(), 1u);
    w.node->startServiceNow();
    EXPECT_EQ(w.svc.starts, 1);
}

TEST(Node, CrashKillsServiceSilentlyAndDropsPorts)
{
    World w;
    w.node->startServiceNow();
    w.node->crash(sec(30));
    EXPECT_FALSE(w.node->up());
    EXPECT_EQ(w.svc.terms, 1);
    EXPECT_TRUE(w.svc.silentLast);
    EXPECT_FALSE(w.intra.portUp(w.node->id()));
    EXPECT_FALSE(w.client.portUp(w.node->id()));
}

TEST(Node, RebootRestoresAndRestartsService)
{
    World w;
    w.node->startServiceNow();
    w.node->crash(sec(30));
    w.s.runUntil(sec(31));
    EXPECT_TRUE(w.node->up());
    EXPECT_EQ(w.node->incarnation(), 2u);
    EXPECT_TRUE(w.intra.portUp(w.node->id()));
    EXPECT_EQ(w.svc.starts, 1); // start delay not elapsed yet
    w.s.runUntil(sec(36));
    EXPECT_EQ(w.svc.starts, 2); // daemon relaunched the process
}

TEST(Node, CrashResetsMemoryManagers)
{
    World w;
    w.node->kernelMem().alloc(1000);
    w.node->pins().pin(1000);
    w.node->crash(sec(10));
    EXPECT_EQ(w.node->kernelMem().used(), 0u);
    EXPECT_EQ(w.node->pins().pinned(), 0u);
}

TEST(Node, FreezeAndUnfreeze)
{
    World w;
    int ran = 0;
    w.node->cpu().exec(usec(10), [&] { ++ran; });
    w.s.runUntil(sec(1));
    EXPECT_EQ(ran, 1);

    w.node->freeze(sec(10));
    EXPECT_TRUE(w.node->frozen());
    w.node->cpu().exec(usec(10), [&] { ++ran; });
    w.s.runUntil(sec(5));
    EXPECT_EQ(ran, 1); // CPU paused
    w.s.runUntil(sec(12));
    EXPECT_TRUE(w.node->up());
    EXPECT_EQ(ran, 2);
}

TEST(Node, FreezeKeepsPortsUp)
{
    World w;
    w.node->freeze(sec(10));
    EXPECT_TRUE(w.intra.portUp(w.node->id())); // NIC hardware still alive
}

TEST(Node, KillServiceTriggersDaemonRestart)
{
    World w;
    w.node->startServiceNow();
    w.node->killService();
    EXPECT_EQ(w.svc.terms, 1);
    EXPECT_FALSE(w.svc.silentLast);
    w.s.runUntil(sec(9));
    EXPECT_EQ(w.svc.starts, 1);
    w.s.runUntil(sec(11));
    EXPECT_EQ(w.svc.starts, 2);
}

TEST(Node, FailFastExitRestarts)
{
    World w;
    w.node->startServiceNow();
    w.svc.alive_ = false; // the process exited on its own
    w.node->serviceFailedFast();
    w.s.runUntil(sec(11));
    EXPECT_EQ(w.svc.starts, 2);
}

TEST(Node, UnreportedExitWaitsForOperator)
{
    World w;
    w.node->startServiceNow();
    w.svc.alive_ = false; // died without telling the daemon
    w.s.runUntil(sec(60));
    EXPECT_EQ(w.svc.starts, 1); // no automatic restart
    w.node->operatorRestartService();
    EXPECT_EQ(w.svc.starts, 2);
}

TEST(Node, SignalsReachService)
{
    World w;
    w.node->startServiceNow();
    w.node->stopService();
    EXPECT_EQ(w.svc.stops, 1);
    w.node->contService();
    EXPECT_EQ(w.svc.conts, 1);
}

TEST(Node, LifecycleCallbacksFire)
{
    World w;
    int crashes = 0;
    w.node->onCrash([&] { ++crashes; });
    w.node->crash(sec(5));
    w.s.runUntil(sec(6));
    w.node->freeze(sec(5));
    w.s.runUntil(sec(20));
    EXPECT_EQ(crashes, 1); // neither the reboot nor the freeze runs it
}

TEST(Node, DoubleCrashIgnored)
{
    World w;
    w.node->crash(sec(10));
    w.node->crash(sec(10)); // no effect
    w.s.runUntil(sec(11));
    EXPECT_TRUE(w.node->up());
    EXPECT_EQ(w.node->incarnation(), 2u);
}

TEST(Node, CrashWhileFrozenDoesNotLeakCpuPause)
{
    World w;
    w.node->freeze(sec(30)); // unfreeze would be due at t=30
    w.node->crash(sec(10));  // crash while frozen; reboot at t=10
    w.s.runUntil(sec(60));   // past the stale unfreeze event
    EXPECT_TRUE(w.node->up());
    int ran = 0;
    w.node->cpu().exec(usec(10), [&] { ++ran; });
    w.s.runUntil(sec(61));
    EXPECT_EQ(ran, 1) << "CPU still paused after reboot";
}

TEST(Node, BuiltOutOfIdOrderPanics)
{
    Simulation s{1}; // node 1 on networks with no port 0 gets port 0
    net::Network intra{s}, client{s};
    EXPECT_DEATH({ osim::Node n(s, 1, intra, client); },
                 "node 1 must own port 1");
}
