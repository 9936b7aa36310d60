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
 *    stalls inside the OS and inbound segments are dropped;
 *  - synchronous EFAULT on a NULL user pointer.
 *
 * Granularity: one frame per application message (not per MSS
 * segment); retransmission, acking and windowing operate on message
 * frames. This preserves every timing behaviour the study measures
 * while keeping event counts tractable.
 */

#ifndef PERFORMA_PROTO_TCP_HH
#define PERFORMA_PROTO_TCP_HH

#include <cstdint>
#include <map>
#include <unordered_map>

#include "net/frame.hh"
#include "os/node.hh"
#include "proto/comm.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulation.hh"

namespace performa::proto {

/** CPU cost parameters for one side of a message operation. */
struct CommCosts
{
    sim::Tick sendFixed = 0;   ///< per-send fixed CPU
    double sendPerKb = 0.0;    ///< per-KB send CPU (copies, checksum)
    sim::Tick recvFixed = 0;   ///< per-receive fixed CPU
    double recvPerKb = 0.0;    ///< per-KB receive CPU
    sim::Tick deliveryDelay = 0; ///< extra delivery latency (polling)
};

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
    CommCosts costs{sim::usec(63), 12.0, sim::usec(74), 12.0, 0};
};

/**
 * The kernel TCP endpoint of one server process. Attached to a Node;
 * demultiplexes Proto::Tcp and Proto::Datagram frames from the
 * intra-cluster network.
 */
class TcpComm : public ClusterComm
{
  public:
    TcpComm(osim::Node &node, TcpConfig cfg,
            const std::unordered_map<sim::NodeId, net::PortId> &peer_ports);

    void setCallbacks(CommCallbacks cbs) override { cbs_ = std::move(cbs); }
    void start() override;
    void connect(sim::NodeId peer) override;
    bool connected(sim::NodeId peer) const override;
    SendStatus send(sim::NodeId peer, AppMessage msg,
                    const SendParams &params) override;
    void sendDatagram(sim::NodeId peer, std::uint32_t kind,
                      sim::RcAny payload = {}) override;
    void consumed(sim::NodeId peer) override;
    void disconnect(sim::NodeId peer) override;
    void shutdown() override;
    void vanish() override;
    void setAppReceiving(bool on) override;

    /** CPU the caller burns issuing a send of @p bytes. */
    sim::Tick sendCost(std::uint64_t bytes) const override;

    const TcpConfig &config() const { return cfg_; }

    /** Snapshot state: listen/receive flags and every connection
     *  (queues deep-copied, payload handles refcount-bumped). */
    struct Saved;

    Saved save() const;
    void restore(const Saved &s);

  private:
    enum FrameKind : std::uint32_t
    {
        Syn,
        SynAck,
        Rst,
        Data,
        Ack,
    };

    /**
     * What a queued outbound message looks like. The pooled payload is
     * created once at send() time; every (re)transmission attaches the
     * same handle to the wire frame (refcount bump), so the block is
     * recycled only when the final ack or abort drops the last
     * reference.
     */
    struct OutMsg
    {
        sim::Rc<AppMessage> msg;
        std::uint64_t wireBytes;
        std::uint64_t seq;
        /** Stream-desync fault riding on this message, if any. */
        bool desync = false;
    };

    struct InMsg
    {
        AppMessage msg;
        sim::NodeId peer;
        bool desync = false;
    };

    /** One direction-agnostic connection endpoint. */
    struct Conn
    {
        std::uint64_t id = 0;
        sim::NodeId peer = sim::invalidNode;
        bool established = false;

        // sender side
        sim::RingBuffer<OutMsg> sndQueue;
        std::uint64_t sndBytes = 0;
        std::uint64_t seqNext = 0;
        bool inFlight = false;
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
        sim::EventHandle rtoTimer;
        sim::Tick rtoTimerAt = 0;
        sim::EventHandle memRetryTimer;
        bool senderBlocked = false;

        // connect side
        int synTries = 0;
        sim::EventHandle synTimer;

        // receiver side
        std::uint64_t seqExpected = 0;
        sim::RingBuffer<InMsg> rcvQueue;
        /** Deliveries queued on the CPU but not yet executed. */
        std::size_t scheduledDeliveries = 0;
    };

    void reset();
    /** Cancel @p c's timers and free the kernel memory its in-flight
     *  frame holds: every way a connection ends goes through here. */
    void teardown(Conn &c);
    void handleSynRetry(std::uint64_t conn_id);
    void handleFrame(net::Frame &&f);
    void handleSyn(const net::Frame &f);
    void handleSynAck(const net::Frame &f);
    void handleRst(const net::Frame &f);
    void handleData(net::Frame &&f);
    void handleAck(const net::Frame &f);

    /** Transmit (or re-transmit) the head of @p c's send queue. */
    void pump(Conn &c);
    /** Set the live deadline to now + rto under a fresh reserved seq;
     *  schedule an event only if none is due at or before it. */
    void armRto(Conn &c);
    /** Put @p c's timer event on the queue at its live deadline. */
    void scheduleRto(Conn &c);
    /** The timer event scheduled under @p seq came due. */
    void onRtoEvent(std::uint64_t conn_id, std::uint64_t seq);
    void onRtoFired(Conn &c);
    void abortConn(std::uint64_t conn_id, BreakReason reason,
                   bool send_rst);
    void sendRawRst(sim::NodeId peer, std::uint64_t conn_id);
    void scheduleDeliveries(Conn &c);
    void maybeUnblockSender(Conn &c);

    Conn *findByPeer(sim::NodeId peer);
    const Conn *findByPeer(sim::NodeId peer) const;

    net::PortId portOf(sim::NodeId peer) const;
    sim::NodeId peerOfPort(net::PortId port) const;

    osim::Node &node_;
    TcpConfig cfg_;
    CommCallbacks cbs_;
    std::unordered_map<sim::NodeId, net::PortId> peerPorts_;
    std::unordered_map<net::PortId, sim::NodeId> portPeers_;

    /** Deep-copy @p c (ring buffers cloned; timer handles are plain
     *  {slot, gen} triples that stay valid across a queue restore). */
    static Conn cloneConn(const Conn &c);

    bool listening_ = false;
    bool appReceiving_ = true;
    // Ordered maps, deliberately: shutdown()/setAppReceiving()/reset()
    // iterate the connection table with wire- and CPU-visible side
    // effects, so iteration order must be identical between a warmed
    // endpoint and its snapshot-restored fork.
    std::map<std::uint64_t, Conn> conns_;
    std::map<sim::NodeId, std::uint64_t> active_;
};

struct TcpComm::Saved
{
    bool listening;
    bool appReceiving;
    std::map<std::uint64_t, Conn> conns; ///< deep copies
    std::map<sim::NodeId, std::uint64_t> active;
};

} // namespace performa::proto

#endif // PERFORMA_PROTO_TCP_HH
