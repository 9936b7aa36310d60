/**
 * @file
 * Unit tests for the VIA model: fail-stop connections, credit-based
 * flow control, RDMA error reporting at both endpoints, memory
 * registration/pinning, and immunity to kernel-memory exhaustion.
 */

#include <gtest/gtest.h>

#include "comm_world.hh"
#include "proto/via.hh"

using namespace performa;
using namespace performa::sim;
using proto::AppMessage;
using proto::SendStatus;
using proto::ViaMode;

using ViaWorld = CommWorld<proto::ViaComm>;

TEST(Via, ConnectAndDeliver)
{
    ViaWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    EXPECT_TRUE(w.eps[0].comm->connected(1));
    EXPECT_TRUE(w.eps[1].comm->connected(0));
    w.eps[0].comm->send(1, w.msg(4096), {});
    w.s.runUntil(sec(2));
    ASSERT_EQ(w.eps[1].received.size(), 1u);
}

TEST(Via, ConnectRefusedWhenNotListening)
{
    ViaWorld w;
    w.eps[1].comm->shutdown();
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(10));
    EXPECT_EQ(w.eps[0].connectFailed.size(), 1u);
}

TEST(Via, PacketLossBreaksConnectionImmediately)
{
    ViaWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.intra.setLinkUp(1, false);
    w.eps[0].comm->send(1, w.msg(1000), {});
    w.s.runUntil(sec(2)); // SAN fail-stop: no retry, instant break
    ASSERT_EQ(w.eps[0].broken.size(), 1u);
    EXPECT_FALSE(w.eps[0].comm->connected(1));
}

TEST(Via, BreakNotifyReachesPeerOnGracefulExit)
{
    ViaWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[0].comm->shutdown();
    w.s.runUntil(sec(2));
    ASSERT_EQ(w.eps[1].broken.size(), 1u);
}

TEST(Via, CreditsExhaustThenBlock)
{
    proto::ViaConfig cfg;
    cfg.credits = 4;
    ViaWorld w(2, cfg);
    w.eps[1].autoCredit = false; // receiver never consumes
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    int ok = 0;
    SendStatus st = SendStatus::Ok;
    while (st == SendStatus::Ok && ok < 50) {
        st = w.eps[0].comm->send(1, w.msg(512), {});
        if (st == SendStatus::Ok)
            ++ok;
    }
    EXPECT_EQ(ok, 4);
    EXPECT_EQ(st, SendStatus::WouldBlock);
}

TEST(Via, CreditReturnUnblocksSender)
{
    proto::ViaConfig cfg;
    cfg.credits = 2;
    ViaWorld w(2, cfg);
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(w.eps[0].comm->send(1, w.msg(512), {}), SendStatus::Ok);
    // autoCredit consumes on delivery, returning credits.
    w.s.runUntil(sec(2));
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(512), {}), SendStatus::Ok);
    w.s.runUntil(sec(3));
    EXPECT_EQ(w.eps[1].received.size(), 3u);
}

TEST(Via, SendReadyFiresWhenBlockedSenderGetsCredit)
{
    proto::ViaConfig cfg;
    cfg.credits = 1;
    ViaWorld w(2, cfg);
    w.eps[1].autoCredit = false;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(512), {}), SendStatus::Ok);
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(512), {}),
              SendStatus::WouldBlock);
    w.s.runUntil(sec(2));
    w.eps[1].comm->consumed(0); // explicit flow-control message
    w.s.runUntil(sec(3));
    EXPECT_EQ(w.eps[0].sendReady, 1);
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(512), {}), SendStatus::Ok);
}

TEST(Via, BadParamsFatalAtSenderForSendRecvMode)
{
    ViaWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    proto::SendParams p;
    p.nullPointer = true;
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(512), p), SendStatus::Fatal);
    w.s.runUntil(sec(2));
    EXPECT_TRUE(w.eps[1].fatal.empty()); // one-node effect
}

TEST(Via, BadParamsFatalAtBothEndsForRemoteWrite)
{
    proto::ViaConfig cfg;
    cfg.mode = ViaMode::RemoteWrite;
    ViaWorld w(2, cfg);
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    proto::SendParams p;
    p.ptrOffset = 32;
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(512), p), SendStatus::Fatal);
    w.s.runUntil(sec(2));
    ASSERT_EQ(w.eps[1].fatal.size(), 1u); // remote DMA error surfaced
}

TEST(Via, PolledModesDelayDelivery)
{
    proto::ViaConfig fast;
    proto::ViaConfig polled;
    polled.mode = ViaMode::RemoteWrite;
    polled.pollDelay = msec(5);

    Tick t_fast = 0, t_polled = 0;
    {
        ViaWorld w(2, fast);
        w.eps[0].comm->connect(1);
        w.s.runUntil(sec(1));
        w.eps[0].comm->send(1, w.msg(512), {});
        w.s.events().runAll();
        t_fast = w.s.now();
    }
    {
        ViaWorld w(2, polled);
        w.eps[0].comm->connect(1);
        w.s.runUntil(sec(1));
        w.eps[0].comm->send(1, w.msg(512), {});
        w.s.events().runAll();
        t_polled = w.s.now();
    }
    EXPECT_GE(t_polled, t_fast + msec(4));
}

TEST(Via, StartPinsCommunicationBuffers)
{
    ViaWorld w;
    EXPECT_GT(w.eps[0].node->pins().pinned(), 0u);
    w.eps[0].comm->shutdown();
    EXPECT_EQ(w.eps[0].node->pins().pinned(), 0u);
}

TEST(Via, StartFailsWhenPinBudgetExhausted)
{
    osim::NodeConfig node_cfg;
    node_cfg.pinLimitBytes = 1024; // less than the registered buffers
    ViaWorld w(2, {}, node_cfg);
    EXPECT_FALSE(w.eps[0].comm->started());
    EXPECT_EQ(w.eps[0].fatal.size(), 1u);
}

TEST(Via, RegisterMemoryTracksPinBudget)
{
    ViaWorld w;
    auto before = w.eps[0].node->pins().pinned();
    EXPECT_TRUE(w.eps[0].comm->registerMemory(1 << 20));
    EXPECT_EQ(w.eps[0].node->pins().pinned(), before + (1 << 20));
    w.eps[0].comm->deregisterMemory(1 << 20);
    EXPECT_EQ(w.eps[0].node->pins().pinned(), before);
}

TEST(Via, RegisterMemoryFailsAtInjectedLimit)
{
    ViaWorld w;
    w.eps[0].node->pins().setInjectedLimit(
        w.eps[0].node->pins().pinned() + 100);
    EXPECT_FALSE(w.eps[0].comm->registerMemory(1 << 20));
}

TEST(Via, ImmuneToKernelMemoryExhaustion)
{
    ViaWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[0].node->kernelMem().setFailInjected(true);
    w.eps[1].node->kernelMem().setFailInjected(true);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(w.eps[0].comm->send(1, w.msg(1000), {}), SendStatus::Ok);
    w.s.runUntil(sec(2));
    EXPECT_EQ(w.eps[1].received.size(), 5u); // pre-allocated resources
}

TEST(Via, FrozenNodeNicStillAcksButAppStalls)
{
    proto::ViaConfig cfg;
    cfg.credits = 3;
    ViaWorld w(2, cfg);
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[1].node->freeze(sec(30));
    // Connection survives the freeze (NIC-level hardware ack)...
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(w.eps[0].comm->send(1, w.msg(512), {}), SendStatus::Ok);
    w.s.runUntil(sec(5));
    EXPECT_TRUE(w.eps[0].broken.empty());
    // ...but credits stop coming back: the sender now blocks.
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(512), {}),
              SendStatus::WouldBlock);
    EXPECT_TRUE(w.eps[1].received.empty());
    w.s.runUntil(sec(40)); // unfreeze: deliveries drain
    EXPECT_EQ(w.eps[1].received.size(), 3u);
}

TEST(Via, CrashedPeerDetectedOnNextSend)
{
    ViaWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[1].node->crash(sec(60));
    w.eps[0].comm->send(1, w.msg(512), {});
    w.s.runUntil(sec(2));
    ASSERT_EQ(w.eps[0].broken.size(), 1u);
}

TEST(Via, DisconnectBreaksPeerSilentlyLocally)
{
    ViaWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[0].comm->disconnect(1);
    w.s.runUntil(sec(2));
    EXPECT_TRUE(w.eps[0].broken.empty());
    ASSERT_EQ(w.eps[1].broken.size(), 1u);
}

TEST(Via, ZeroCopySendCostLowerThanCopyMode)
{
    proto::ViaConfig copy_cfg;
    copy_cfg.costs.sendPerKb = 9.0;
    copy_cfg.costs.sendFixed = usec(12);
    proto::ViaConfig zc_cfg = copy_cfg;
    zc_cfg.costs.sendPerKb = 3.0;
    ViaWorld a(2, copy_cfg);
    ViaWorld b(2, zc_cfg);
    EXPECT_GT(a.eps[0].comm->sendCost(8192), b.eps[0].comm->sendCost(8192));
}

TEST(Via, SimultaneousConnectsConvergeOnOneVi)
{
    ViaWorld w;
    // Both ends connect at the same instant (rejoin race).
    w.eps[0].comm->connect(1);
    w.eps[1].comm->connect(0);
    w.s.runUntil(sec(3));
    ASSERT_TRUE(w.eps[0].comm->connected(1));
    ASSERT_TRUE(w.eps[1].comm->connected(0));
    // The agreed VI must actually carry data in both directions.
    w.eps[0].comm->send(1, w.msg(512), {});
    w.eps[1].comm->send(0, w.msg(512), {});
    w.s.runUntil(sec(4));
    EXPECT_EQ(w.eps[1].received.size(), 1u);
    EXPECT_EQ(w.eps[0].received.size(), 1u);
    EXPECT_TRUE(w.eps[0].broken.empty());
    EXPECT_TRUE(w.eps[1].broken.empty());
}
