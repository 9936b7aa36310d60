/**
 * @file
 * The contract both intra-cluster stacks share through their channel
 * core, checked on each: connect retries give up on a down node, a
 * vanished endpoint keeps no state, every way a channel with a
 * blocked sender ends wakes that sender, and unknown peers panic.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "comm_world.hh"
#include "proto/tcp.hh"
#include "proto/via.hh"

using namespace performa;
using namespace performa::sim;
using proto::SendStatus;

namespace {

template <typename Comm>
class CommContract : public ::testing::Test
{
  protected:
    using World = CommWorld<Comm>;

    /** A config in which one 512-byte message fills the sender's
     *  window and the receiver never reopens it: TCP's send buffer
     *  holds one message and the receiver accepts (and acks) nothing;
     *  VIA has one credit. */
    static typename World::Config
    oneMessageWindow()
    {
        typename World::Config cfg;
        if constexpr (std::is_same_v<Comm, proto::TcpComm>) {
            cfg.sndBufBytes = 512;
            cfg.rcvQueueMsgs = 0;
        } else {
            cfg.credits = 1;
        }
        return cfg;
    }

    /** Connect node 0 to node 1 and block node 0's sender. */
    static void
    blockSender(World &w)
    {
        w.eps[1].autoCredit = false;
        w.eps[0].comm->connect(1);
        w.s.runUntil(sec(1));
        EXPECT_EQ(w.eps[0].comm->send(1, w.msg(512), {}), SendStatus::Ok);
        EXPECT_EQ(w.eps[0].comm->send(1, w.msg(512), {}),
                  SendStatus::WouldBlock);
    }
};

using Stacks = ::testing::Types<proto::TcpComm, proto::ViaComm>;
TYPED_TEST_SUITE(CommContract, Stacks);

} // namespace

TYPED_TEST(CommContract, ConnectToDownNodeTimesOut)
{
    typename TestFixture::World w;
    w.eps[1].node->crash(sec(60));
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(30));
    EXPECT_EQ(w.eps[0].connectFailed.size(), 1u);
}

TYPED_TEST(CommContract, VanishLeavesNoState)
{
    typename TestFixture::World w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[0].comm->vanish();
    EXPECT_FALSE(w.eps[0].comm->connected(1));
    // Peer discovers only via its own traffic (reset for unknown conn).
    w.eps[1].comm->send(0, w.msg(100), {});
    w.s.runUntil(sec(2));
    EXPECT_EQ(w.eps[1].broken.size(), 1u);
}

TYPED_TEST(CommContract, QuietReplacementWakesBlockedSender)
{
    typename TestFixture::World w(2, TestFixture::oneMessageWindow());
    TestFixture::blockSender(w);
    // Peer's process bounces and reconnects: the blocked sender must
    // get a send-ready wakeup.
    w.eps[1].comm->shutdown();
    w.s.runUntil(sec(2));
    w.eps[1].comm->start();
    w.eps[1].comm->connect(0);
    w.s.runUntil(sec(3));
    EXPECT_GE(w.eps[0].sendReady, 1);
}

TYPED_TEST(CommContract, StaleChannelReplacementWakesBlockedSender)
{
    typename TestFixture::World w(2, TestFixture::oneMessageWindow());
    TestFixture::blockSender(w);
    // The peer's node reboots without a word and reconnects: the new
    // connect request replaces the stale channel quietly, and the
    // sender blocked on it is woken to retry on the new one.
    w.eps[1].comm->vanish();
    w.eps[1].comm->start();
    w.eps[1].comm->connect(0);
    w.s.runUntil(sec(2));
    EXPECT_EQ(w.eps[0].sendReady, 1);
    EXPECT_TRUE(w.eps[0].broken.empty()); // replaced, not broken
    EXPECT_TRUE(w.eps[0].comm->connected(1));
}

TYPED_TEST(CommContract, DisconnectWakesBlockedSenderOnce)
{
    typename TestFixture::World w(2, TestFixture::oneMessageWindow());
    TestFixture::blockSender(w);
    ASSERT_EQ(w.eps[0].sendReady, 0);
    w.eps[0].comm->disconnect(1);
    EXPECT_EQ(w.eps[0].sendReady, 1);
    w.s.runUntil(sec(5));
    EXPECT_EQ(w.eps[0].sendReady, 1);
    EXPECT_TRUE(w.eps[0].broken.empty()); // app-initiated
    ASSERT_EQ(w.eps[1].broken.size(), 1u);
}

TYPED_TEST(CommContract, ConnectToUnknownPeerPanics)
{
    typename TestFixture::World w; // 2 nodes: ports 0 and 1 only
    EXPECT_DEATH(w.eps[0].comm->connect(7), "unknown peer node 7");
}
