/**
 * @file
 * Unit tests for the TCP model: connection lifecycle, reliable
 * delivery across faults, back-pressure, abort timeouts, RST
 * semantics, stream desync, and kernel-memory coupling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "comm_world.hh"
#include "proto/tcp.hh"

using namespace performa;
using namespace performa::sim;
using proto::AppMessage;
using proto::SendStatus;

using TcpWorld = CommWorld<proto::TcpComm>;

TEST(Tcp, ConnectEstablishesBothEnds)
{
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    EXPECT_TRUE(w.eps[0].comm->connected(1));
    EXPECT_TRUE(w.eps[1].comm->connected(0));
    ASSERT_EQ(w.eps[0].connected.size(), 1u);
    ASSERT_EQ(w.eps[1].connected.size(), 1u);
}

TEST(Tcp, ConnectToDeadListenerFails)
{
    TcpWorld w;
    w.eps[1].comm->shutdown(); // not listening
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(5));
    EXPECT_FALSE(w.eps[0].comm->connected(1));
    EXPECT_EQ(w.eps[0].connectFailed.size(), 1u);
}

TEST(Tcp, SendWithoutConnectionIsRejected)
{
    TcpWorld w;
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(100), {}),
              SendStatus::NotConnected);
}

TEST(Tcp, DeliversMessagesInOrder)
{
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    for (std::uint32_t i = 0; i < 5; ++i)
        EXPECT_EQ(w.eps[0].comm->send(1, w.msg(1000, i), {}),
                  SendStatus::Ok);
    w.s.runUntil(sec(2));
    ASSERT_EQ(w.eps[1].received.size(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i)
        EXPECT_EQ(w.eps[1].received[i].type, i);
}

TEST(Tcp, NullPointerFailsSynchronouslyWithEfault)
{
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    proto::SendParams params;
    params.nullPointer = true;
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(100), params),
              SendStatus::Efault);
    w.s.runUntil(sec(2));
    EXPECT_TRUE(w.eps[1].received.empty());
    EXPECT_TRUE(w.eps[1].fatal.empty());
}

TEST(Tcp, OffByNDesyncIsFatalAtReceiverOnly)
{
    // Off-by-N size and off-by-N pointer both desync the stream.
    proto::SendParams off_size, off_ptr;
    off_size.sizeDelta = 16;
    off_ptr.ptrOffset = 8;
    for (const proto::SendParams &params : {off_size, off_ptr}) {
        SCOPED_TRACE(params.sizeDelta ? "off-by-N size" : "off-by-N ptr");
        TcpWorld w;
        w.eps[0].comm->connect(1);
        w.s.runUntil(sec(1));
        EXPECT_EQ(w.eps[0].comm->send(1, w.msg(1000), params),
                  SendStatus::Ok);
        w.s.runUntil(sec(2));
        EXPECT_EQ(w.eps[1].fatal.size(), 1u);
        EXPECT_TRUE(w.eps[0].fatal.empty());
        EXPECT_TRUE(w.eps[1].received.empty());
    }
}

TEST(Tcp, SurvivesShortLinkFlapViaRetransmission)
{
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.intra.setLinkUp(1, false);
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(1000), {}), SendStatus::Ok);
    w.s.runUntil(sec(5));
    EXPECT_TRUE(w.eps[1].received.empty());
    w.intra.setLinkUp(1, true);
    w.s.runUntil(sec(80)); // within backoff reach
    EXPECT_EQ(w.eps[1].received.size(), 1u);
    EXPECT_TRUE(w.eps[0].broken.empty()); // no false positive
}

TEST(Tcp, AbortsAfterRetransmissionTimeout)
{
    proto::TcpConfig cfg;
    cfg.abortTimeout = sec(30); // shortened for the test
    TcpWorld w(2, cfg);
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.intra.setLinkUp(1, false);
    w.eps[0].comm->send(1, w.msg(1000), {});
    w.s.runUntil(sec(120));
    ASSERT_EQ(w.eps[0].broken.size(), 1u);
    EXPECT_EQ(w.eps[0].broken[0], 1u);
    EXPECT_FALSE(w.eps[0].comm->connected(1));
}

TEST(Tcp, PeerProcessExitSendsRst)
{
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[1].comm->shutdown(); // graceful exit closes sockets
    w.s.runUntil(sec(2));
    ASSERT_EQ(w.eps[0].broken.size(), 1u);
}

TEST(Tcp, RebootedPeerAnswersStaleTrafficWithRst)
{
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[1].node->crash(sec(20));
    w.eps[0].comm->send(1, w.msg(1000), {});
    w.s.runUntil(sec(10));
    EXPECT_TRUE(w.eps[0].broken.empty()); // silence, still retrying
    w.s.runUntil(sec(120)); // reboot + next retransmission -> RST
    ASSERT_EQ(w.eps[0].broken.size(), 1u);
}

TEST(Tcp, SenderBlocksWhenBufferFullAndUnblocksOnDrain)
{
    proto::TcpConfig cfg;
    cfg.sndBufBytes = 4 * 1024;
    TcpWorld w(2, cfg);
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.intra.setLinkUp(1, false); // nothing drains
    int ok = 0;
    SendStatus st = SendStatus::Ok;
    while (st == SendStatus::Ok && ok < 100) {
        st = w.eps[0].comm->send(1, w.msg(1024), {});
        if (st == SendStatus::Ok)
            ++ok;
    }
    EXPECT_EQ(st, SendStatus::WouldBlock);
    EXPECT_GT(ok, 0);
    EXPECT_LT(ok, 10);
    w.intra.setLinkUp(1, true);
    w.s.runUntil(sec(120));
    EXPECT_GE(w.eps[0].sendReady, 1);
    EXPECT_EQ(w.eps[1].received.size(),
              static_cast<std::size_t>(ok));
}

TEST(Tcp, MessageLargerThanTheSendBufferGoesIntoAnEmptyQueue)
{
    TcpWorld w; // 128 KiB send buffer
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(200 * 1024, 7), {}),
              SendStatus::Ok);
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(1000, 8), {}),
              SendStatus::WouldBlock);
    EXPECT_EQ(w.eps[0].sendReady, 0);
    w.s.runUntil(sec(2));
    ASSERT_EQ(w.eps[1].received.size(), 1u);
    EXPECT_EQ(w.eps[1].received[0].type, 7u);
    EXPECT_EQ(w.eps[1].received[0].bytes, 200u * 1024);
    EXPECT_EQ(w.eps[0].sendReady, 1); // woken by the ack
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(1000, 8), {}), SendStatus::Ok);
    w.s.runUntil(sec(3));
    ASSERT_EQ(w.eps[1].received.size(), 2u);
    EXPECT_EQ(w.eps[1].received[1].type, 8u);
}

TEST(Tcp, ReceiverStopsAckingWhenAppStopsReceiving)
{
    proto::TcpConfig cfg;
    cfg.rcvQueueMsgs = 4;
    cfg.sndBufBytes = 6 * 1024;
    TcpWorld w(2, cfg);
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[1].comm->setAppReceiving(false); // SIGSTOP
    SendStatus st = SendStatus::Ok;
    int sent = 0;
    while (st == SendStatus::Ok && sent < 100) {
        st = w.eps[0].comm->send(1, w.msg(1024), {});
        if (st == SendStatus::Ok)
            ++sent;
        w.s.runUntil(w.s.now() + sec(1));
    }
    // Receiver queue (4) filled, then the sender's buffer backed up.
    EXPECT_EQ(st, SendStatus::WouldBlock);
    EXPECT_TRUE(w.eps[1].received.empty());
    w.eps[1].comm->setAppReceiving(true); // SIGCONT
    w.s.runUntil(w.s.now() + sec(200));
    EXPECT_EQ(w.eps[1].received.size(), static_cast<std::size_t>(sent));
}

TEST(Tcp, FrozenNodeNeitherAcksNorProcesses)
{
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[1].node->freeze(sec(30));
    w.eps[0].comm->send(1, w.msg(1000), {});
    w.s.runUntil(sec(20));
    EXPECT_TRUE(w.eps[1].received.empty());
    EXPECT_TRUE(w.eps[0].broken.empty());
    w.s.runUntil(sec(120)); // unfreeze + retransmission delivers
    EXPECT_EQ(w.eps[1].received.size(), 1u);
}

TEST(Tcp, DatagramsDelivered)
{
    TcpWorld w;
    w.eps[0].comm->sendDatagram(1, 42);
    w.s.runUntil(sec(1));
    ASSERT_EQ(w.eps[1].datagrams.size(), 1u);
    EXPECT_EQ(w.eps[1].datagrams[0], 42u);
}

TEST(Tcp, DatagramsBlockedByKernelMemoryFault)
{
    TcpWorld w;
    w.eps[0].node->kernelMem().setFailInjected(true);
    w.eps[0].comm->sendDatagram(1, 42);
    w.s.runUntil(sec(1));
    EXPECT_TRUE(w.eps[1].datagrams.empty());
}

TEST(Tcp, KernelMemoryFaultStallsOutboundUntilCleared)
{
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[0].node->kernelMem().setFailInjected(true);
    EXPECT_EQ(w.eps[0].comm->send(1, w.msg(1000), {}), SendStatus::Ok);
    w.s.runUntil(sec(10));
    EXPECT_TRUE(w.eps[1].received.empty()); // queued in the OS
    w.eps[0].node->kernelMem().setFailInjected(false);
    w.s.runUntil(sec(20));
    EXPECT_EQ(w.eps[1].received.size(), 1u);
}

TEST(Tcp, KernelMemoryFaultKeepsOneRetryPerConnection)
{
    // Every send into a connection stalled on kernel memory calls
    // pump(). The wait for a buffer is per connection: one pending
    // retry, polling every 10 ms, however many sends pile up behind it.
    TcpWorld w(3);
    w.eps[0].comm->connect(1);
    w.eps[0].comm->connect(2);
    w.s.runUntil(sec(1));
    ASSERT_TRUE(w.eps[0].comm->connected(1));
    ASSERT_TRUE(w.eps[0].comm->connected(2));
    w.eps[0].node->kernelMem().setFailInjected(true);
    int ok = 0;
    for (NodeId peer : {NodeId{1}, NodeId{2}})
        while (w.eps[0].comm->send(peer, w.msg(1000), {}) == SendStatus::Ok)
            ++ok;
    ASSERT_GT(ok, 200);

    std::uint64_t executed_before = w.s.events().executed();
    std::size_t peak_heap = 0;
    std::size_t peak_pending = 0;
    for (Tick t = sec(1) + msec(1); t <= sec(2); t += msec(1)) {
        w.s.runUntil(t);
        peak_heap = std::max(peak_heap, w.s.events().heapSize());
        peak_pending = std::max(peak_pending, w.s.events().pending());
    }
    std::uint64_t fired = w.s.events().executed() - executed_before;

    EXPECT_LE(peak_pending, 2u) << "one pending retry per connection";
    EXPECT_LE(peak_heap, 4u);
    // Two connections, each retrying every 10 ms for one second.
    EXPECT_GE(fired, 190u);
    EXPECT_LE(fired, 210u);
    EXPECT_TRUE(w.eps[1].received.empty());
    EXPECT_TRUE(w.eps[2].received.empty());

    w.eps[0].node->kernelMem().setFailInjected(false);
    w.s.runUntil(sec(30));
    EXPECT_EQ(static_cast<int>(w.eps[1].received.size() +
                               w.eps[2].received.size()), ok);
}

TEST(Tcp, InboundDroppedDuringKernelMemoryFault)
{
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[1].node->kernelMem().setFailInjected(true);
    w.eps[0].comm->send(1, w.msg(1000), {});
    w.s.runUntil(sec(5));
    EXPECT_TRUE(w.eps[1].received.empty());
    w.eps[1].node->kernelMem().setFailInjected(false);
    w.s.runUntil(sec(80)); // retransmission gets through
    EXPECT_EQ(w.eps[1].received.size(), 1u);
}

TEST(Tcp, DisconnectResetsPeerWithoutLocalCallback)
{
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.eps[0].comm->disconnect(1);
    w.s.runUntil(sec(2));
    EXPECT_FALSE(w.eps[0].comm->connected(1));
    EXPECT_TRUE(w.eps[0].broken.empty());   // app-initiated
    ASSERT_EQ(w.eps[1].broken.size(), 1u);  // peer saw the RST
}

TEST(Tcp, SendCostScalesWithSize)
{
    TcpWorld w;
    auto &tcp = *w.eps[0].comm;
    EXPECT_GT(tcp.sendCost(8192), tcp.sendCost(256));
}

TEST(Tcp, SimultaneousConnectsConvergeOnOneConnection)
{
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.eps[1].comm->connect(0);
    w.s.runUntil(sec(5));
    ASSERT_TRUE(w.eps[0].comm->connected(1));
    ASSERT_TRUE(w.eps[1].comm->connected(0));
    w.eps[0].comm->send(1, w.msg(512), {});
    w.eps[1].comm->send(0, w.msg(512), {});
    w.s.runUntil(sec(6));
    EXPECT_EQ(w.eps[1].received.size(), 1u);
    EXPECT_EQ(w.eps[0].received.size(), 1u);
    EXPECT_TRUE(w.eps[0].broken.empty());
    EXPECT_TRUE(w.eps[1].broken.empty());
}

TEST(Tcp, RetransmitSharesPooledPayloadWithoutUseAfterFree)
{
    // The ABA/use-after-free trap of the payload pool: one pooled body
    // is created at send() time and every retransmission attaches the
    // SAME handle to its wire frame. Each dropped frame releases a
    // reference; if any release wrongly freed the block, the churn
    // below would recycle and scribble over it (and ASan would bite).
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(msec(100));
    ASSERT_TRUE(w.eps[0].comm->connected(1));

    auto body = w.s.makePayload<std::vector<std::uint64_t>>(
        std::vector<std::uint64_t>(64, 0xA11CE));
    sim::RcAny watch = body; // observer reference on the body block

    AppMessage m = w.msg(4096, 7);
    m.body = std::move(body);

    w.intra.setSwitchUp(false);
    ASSERT_EQ(w.eps[0].comm->send(1, std::move(m), {}), SendStatus::Ok);

    std::uint64_t drops0 = w.intra.dropped();
    // Churn the pool while the RTO clock doubles through ~5 s of
    // drops, so a wrongly recycled block would get reused.
    for (int i = 1; i <= 5; ++i) {
        w.s.scheduleIn(sec(static_cast<sim::Tick>(i)), [&w] {
            for (int j = 0; j < 32; ++j)
                w.s.makePayload<std::vector<std::uint64_t>>(
                    std::vector<std::uint64_t>(64, 0xDEAD));
        });
    }
    w.s.runUntil(w.s.now() + sec(5));
    EXPECT_GT(w.intra.dropped(), drops0 + 2); // original + retransmits
    EXPECT_TRUE(w.eps[1].received.empty());
    // Queued OutMsg still owns the payload: us + the sender's message.
    EXPECT_EQ(watch.refCount(), 2u);

    w.intra.setSwitchUp(true);
    w.s.runUntil(w.s.now() + sec(30)); // next RTO delivers; ack returns

    ASSERT_EQ(w.eps[1].received.size(), 1u);
    const AppMessage &got = w.eps[1].received[0];
    EXPECT_EQ(got.type, 7u);
    auto *v = got.body.get<std::vector<std::uint64_t>>();
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(v->size(), 64u);
    EXPECT_EQ(v->front(), 0xA11CEull);
    EXPECT_EQ(v->back(), 0xA11CEull);
    // Sender side released at ack: the observer and the delivered copy.
    EXPECT_EQ(watch.refCount(), 2u);
    w.eps[1].received.clear();
    EXPECT_EQ(watch.refCount(), 1u);
}

// ---------------------------------------------------------------------
// Retransmission timer
// ---------------------------------------------------------------------

TEST(TcpRto, RetransmitKeepsItsSameTickPlace)
{
    // An acked message leaves its timer event queued; the next send's
    // deadline takes its seq at send time and is re-armed by that
    // event. The retransmit must still run after events scheduled for
    // the deadline tick before the send, and before those scheduled
    // after it.
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    ASSERT_EQ(w.eps[0].comm->send(1, w.msg(1000), {}), SendStatus::Ok);
    w.s.runUntil(sec(1) + msec(50));
    ASSERT_EQ(w.eps[1].received.size(), 1u);

    w.intra.setLinkUp(1, false); // the next message and its retransmit
    Tick deadline = w.s.now() + w.eps[0].comm->config().rtoInitial;
    std::uint64_t seen_before = 0;
    std::uint64_t seen_after = 0;
    w.s.schedule(deadline, [&] { seen_before = w.intra.dropped(); });
    ASSERT_EQ(w.eps[0].comm->send(1, w.msg(1000), {}), SendStatus::Ok);
    w.s.schedule(deadline, [&] { seen_after = w.intra.dropped(); });
    std::uint64_t dropped_at_send = w.intra.dropped();

    w.s.runUntil(deadline - 1);
    EXPECT_EQ(w.intra.dropped(), dropped_at_send);
    w.s.runUntil(deadline);
    EXPECT_EQ(seen_before, dropped_at_send);
    EXPECT_EQ(seen_after, dropped_at_send + 1);
}

TEST(TcpRto, BackoffResetArmsTheEarlierDeadline)
{
    // After backoff, the timer event of the last retransmit is due far
    // out. An ack resets the rto, so the next send's deadline comes
    // first: it must be rescheduled earlier, not wait for that event.
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    w.intra.setLinkUp(1, false);
    ASSERT_EQ(w.eps[0].comm->send(1, w.msg(1000), {}), SendStatus::Ok);
    // Lost at 1.0 s, retransmits lost at 1.2 s and 1.6 s; the link is
    // back for the one at 2.4 s, whose timer event is due at 4.0 s.
    w.s.runUntil(sec(2));
    w.intra.setLinkUp(1, true);
    w.s.runUntil(sec(3));
    ASSERT_EQ(w.eps[1].received.size(), 1u);

    w.intra.setLinkUp(1, false);
    Tick sent = w.s.now();
    ASSERT_EQ(w.eps[0].comm->send(1, w.msg(1000), {}), SendStatus::Ok);
    std::uint64_t dropped_at_send = w.intra.dropped();
    Tick rto = w.eps[0].comm->config().rtoInitial;
    w.s.runUntil(sent + rto - 1);
    EXPECT_EQ(w.intra.dropped(), dropped_at_send);
    w.s.runUntil(sent + rto);
    EXPECT_EQ(w.intra.dropped(), dropped_at_send + 1)
        << "retransmit must follow the reset rto, not the backed-off one";
}

TEST(TcpRto, AckedFloodKeepsOneArmedTimerPerConnection)
{
    // One message per millisecond for 10 s, each acked well inside the
    // rto: a deadline per message would leave a cancelled heap entry
    // per message. Disarmed deadlines cost no heap entry, so the heap
    // holds one timer event per connection plus the traffic in flight.
    TcpWorld w;
    w.eps[0].comm->connect(1);
    w.s.runUntil(sec(1));
    std::size_t peak_heap = 0;
    int sent = 0;
    std::function<void()> tick = [&] {
        peak_heap = std::max(peak_heap, w.s.events().heapSize());
        if (w.eps[0].comm->send(1, w.msg(1000), {}) == SendStatus::Ok)
            ++sent;
        if (w.s.now() < sec(11))
            w.s.scheduleIn(msec(1), [&] { tick(); });
    };
    tick();
    w.s.runUntil(sec(12));
    EXPECT_EQ(sent, 10001);
    EXPECT_EQ(w.eps[1].received.size(), 10001u);
    EXPECT_LT(peak_heap, 12u);
}
