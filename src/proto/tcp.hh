/**
 * @file
 * Message-level model of a kernel TCP stack, faithful to the
 * behaviours the paper's evaluation depends on:
 *
 *  - a byte-stream with framing on top: an off-by-N size or pointer
 *    fault desynchronizes the stream and surfaces as a fatal framing
 *    error at the receiver;
 *  - timeout-and-retry with exponential backoff: packet loss is
 *    assumed transient, so faults are detected only after very long
 *    abort timeouts (10-15 minutes);
 *  - RST semantics: a segment arriving at a host that does not know
 *    the connection (process died, node rebooted into a new
 *    incarnation) is answered with a reset, which is how peers
 *    eventually detect crashes;
 *  - kernel-memory coupling: every queued segment needs an skbuf; when
 *    the allocator fails (resource-exhaustion fault) outbound traffic
 *    stalls inside the OS, each connection in one pending wait that
 *    retries the allocation every 10 ms, and inbound segments are
 *    dropped;
 *  - synchronous EFAULT on a NULL user pointer;
 *  - a bounded send buffer: send() returns WouldBlock when the
 *    message would take the queued bytes past sndBufBytes, except
 *    into an empty queue, which accepts a message of any size (a
 *    blocking send() larger than SO_SNDBUF completes). A blocked
 *    sender is woken once acks drain the queue to 3/4 of the buffer.
 *
 * Granularity: one frame per application message (not per MSS
 * segment); retransmission, acking and windowing operate on message
 * frames. This preserves every timing behaviour the study measures
 * while keeping event counts tractable.
 */

#ifndef PERFORMA_PROTO_TCP_HH
#define PERFORMA_PROTO_TCP_HH

#include <cstdint>

#include "proto/channel_core.hh"

namespace performa::proto {

/** Tunables for the TCP model. */
struct TcpConfig
{
    std::uint64_t sndBufBytes = 128 * 1024; ///< per-connection send queue
    std::size_t rcvQueueMsgs = 16;          ///< per-connection recv queue
    sim::Tick rtoInitial = sim::msec(200);
    sim::Tick rtoMax = sim::sec(64);
    /**
     * Give up retransmitting and abort the connection after this long
     * without progress ("these timeouts tend to be very long, on the
     * order of 10-15 minutes").
     */
    sim::Tick abortTimeout = sim::minutes(15);
    sim::Tick connectTimeout = sim::sec(3);
    int connectRetries = 4;
    std::uint64_t headerBytes = 60;  ///< wire overhead per message
    std::uint64_t datagramBytes = 64;
    /** Default CPU costs: calibrated kernel-TCP values (see
     *  press::tcpConfigFor, which PRESS deployments use). */
    CommCosts costs{sim::usec(63), 12.0, sim::usec(74), 12.0};
};

/**
 * A queued outbound message. The pooled payload is created once at
 * send() time; every (re)transmission attaches the same handle to the
 * wire frame (refcount bump), so the block is recycled only when the
 * final ack or abort drops the last reference.
 */
struct TcpOutMsg
{
    sim::Rc<AppMessage> msg;
    std::uint64_t wireBytes;
    std::uint64_t seq;
    /** Stream-desync fault riding on this message, if any. */
    bool desync = false;
};

/** One connection endpoint: the shared channel plus the byte stream's
 *  sequencing, retransmission and kernel-memory state. */
struct TcpChannel : Channel<TcpOutMsg>
{
    std::uint64_t sndBytes = 0;
    std::uint64_t seqNext = 0;
    bool skbufHeld = false; ///< in-flight frame holds kernel memory
    sim::Tick rto = 0;
    sim::Tick firstFailAt = 0; ///< 0 = progressing
    /**
     * The live retransmission deadline: fires at (rtoAt, rtoSeq)
     * while rtoArmed. An ack only disarms it; the event already
     * on the queue (rtoTimer, due at rtoTimerAt) is kept and
     * re-armed or ignored when it fires (see armRto).
     */
    bool rtoArmed = false;
    sim::Tick rtoAt = 0;
    std::uint64_t rtoSeq = 0;
    sim::Timer rtoTimer;
    sim::Tick rtoTimerAt = 0;
    /** The one pending kernel-memory wait: retries the skbuf
     *  allocation for the head of sndQueue (see pump). */
    sim::Timer memRetryTimer;
    std::uint64_t seqExpected = 0;
};

/**
 * The kernel TCP endpoint of one server process. Attached to a Node;
 * demultiplexes Proto::Tcp and Proto::Datagram frames from the
 * intra-cluster network.
 */
class TcpComm : public ChannelCore<TcpComm, TcpConfig, TcpChannel>
{
  public:
    using ChannelCore::ChannelCore;

    SendStatus send(sim::NodeId peer, AppMessage msg,
                    const SendParams &params) override;
    void sendDatagram(sim::NodeId peer, std::uint32_t kind,
                      sim::RcAny payload = {}) override;
    void consumed(sim::NodeId peer) override;

  private:
    friend ChannelCore;

    enum FrameKind : std::uint32_t
    {
        Syn,
        SynAck,
        Rst,
        Data,
        Ack,
    };

    static constexpr std::uint32_t ConnectReq = Syn;
    static constexpr std::uint32_t ConnectAck = SynAck;
    static constexpr std::uint32_t Refuse = Rst;
    static constexpr std::uint32_t Reset = Rst;
    static constexpr net::Proto wire = net::Proto::Tcp;
    static constexpr const char *traceTag = "tcp";

    void initChannel(TcpChannel &c);
    /** Cancel the retransmission and memory-retry timers and free the
     *  kernel memory the in-flight frame holds. */
    void release(TcpChannel &c);
    /** The framing layer on top of a desynchronized byte stream reads
     *  garbage lengths: unrecoverable. */
    void deliver(sim::NodeId peer, InMsg &&in);

    void handleFrame(net::Frame &&f);
    void handleData(const net::Frame &f);
    void handleAck(const net::Frame &f);
    /** Ack data frame @p f back to its sender. */
    void sendAck(const net::Frame &f);

    /** Transmit the head of @p c's send queue if nothing is in
     *  flight and an skbuf can be had; otherwise, unless a wait is
     *  already pending, retry the allocation in 10 ms. */
    void pump(TcpChannel &c);
    /** Put the head of @p c's send queue on the wire (first transmit
     *  or retransmit). */
    void transmitHead(const TcpChannel &c);
    /** Set the live deadline to now + rto under a fresh reserved seq;
     *  schedule an event only if none is due at or before it. */
    void armRto(TcpChannel &c);
    /** Put @p c's timer event on the queue at its live deadline. */
    void scheduleRto(TcpChannel &c);
    /** The timer event scheduled under @p seq came due. */
    void onRtoEvent(std::uint64_t conn_id, std::uint64_t seq);
    void onRtoFired(TcpChannel &c);
    void maybeUnblockSender(TcpChannel &c);
};

} // namespace performa::proto

#endif // PERFORMA_PROTO_TCP_HH
