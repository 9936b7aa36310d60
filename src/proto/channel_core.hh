/**
 * @file
 * The channel core both intra-cluster stacks are built on.
 *
 * TcpComm and ViaComm differ where the paper says the substrates
 * differ: TCP detects faults slowly, by retransmission, takes its
 * buffers from kernel memory and desyncs its byte stream on bad send
 * parameters; VIA fails stop on a lost packet, pre-pins its buffers,
 * flow-controls with credits and raises RDMA errors at both ends.
 * Everything else is written once, here: the channel table, connect with retries, accepting a connection (with
 * the simultaneous-connect tie-break), the one close path, the receive
 * queue and CPU-delivery pipeline, datagram reception, the frame
 * builder and the snapshot. A peer's port is its node id (see
 * osim::Node); portOf() is the one checked conversion.
 *
 * The core is a CRTP base. A stack's differences come in as static
 * values and statically dispatched hooks, never as a branch on which
 * stack this is and never as a virtual call per message.
 *
 * A stack defines (private, with the core as a friend):
 *  - frame kinds `ConnectReq`, `ConnectAck`, `Refuse` (the answer to a
 *    connect while not listening) and `Reset` (the close notice, also
 *    the answer to data for a channel this incarnation does not know);
 *    `wire`, its net::Proto; `traceTag`, its name in a PANIC;
 *  - `void initChannel(Chan &)`: size a new channel's queues;
 *  - `void pump(Chan &)`: transmit what the channel has queued;
 *  - `void handleFrame(net::Frame &&)`: every non-datagram frame.
 *
 * and may hide these defaults:
 *  - `onEstablished(Chan &)`: the channel just became usable;
 *  - `release(Chan &)`: cancel the stack's timers and free what it holds;
 *  - `deliver(sim::NodeId, InMsg &&)`: hand a message to the app;
 *  - `deliveryDelay()`: latency before the CPU sees a received message.
 */

#ifndef PERFORMA_PROTO_CHANNEL_CORE_HH
#define PERFORMA_PROTO_CHANNEL_CORE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "net/frame.hh"
#include "os/node.hh"
#include "proto/comm.hh"
#include "sim/logging.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulation.hh"
#include "sim/timer.hh"

namespace performa::proto {

/** CPU cost parameters for one side of a message operation. */
struct CommCosts
{
    sim::Tick sendFixed = 0;   ///< per-send fixed CPU
    double sendPerKb = 0.0;    ///< per-KB send CPU (copies, checksum)
    sim::Tick recvFixed = 0;   ///< per-receive fixed CPU
    double recvPerKb = 0.0;    ///< per-KB receive CPU
};

/** A received message waiting for the CPU to hand it to the app. */
struct InMsg
{
    AppMessage msg;
    bool corrupted = false; ///< the frame's bytes were garbage
};

/**
 * What every channel holds, whichever stack owns it. A stack's channel
 * type derives from this and adds its own plain fields; copying a
 * channel copies all of them.
 */
template <typename Out>
struct Channel
{
    std::uint64_t id = 0;
    sim::NodeId peer = sim::invalidNode;
    bool established = false;
    bool inFlight = false;      ///< the head of sndQueue is on the wire
    bool senderBlocked = false; ///< a send returned WouldBlock
    sim::RingBuffer<Out> sndQueue;
    sim::RingBuffer<InMsg> rcvQueue;
    /** Deliveries queued on the CPU but not yet executed. */
    std::size_t scheduledDeliveries = 0;
    int connectTries = 0;
    sim::Timer connectTimer;
};

/**
 * The mutable state of a channel core: the flags and the channel
 * table (a snapshot copies it whole; rings copy element by element,
 * payloads by refcount bump, and timers are plain {slot, gen} handles
 * that stay valid across an event-queue restore).
 */
template <typename Chan>
struct ChannelState
{
    bool listening_ = false;
    bool appReceiving_ = true;
    // Ordered maps, deliberately: shutdown(), setAppReceiving() and
    // closeAll() walk the channel table with wire- and CPU-visible side
    // effects, so the order must be identical between a warmed endpoint
    // and its snapshot-restored fork. Every active_ entry names a live
    // channel: only open() adds one, close() and closeAll() remove them.
    std::map<std::uint64_t, Chan> chans_;
    std::map<sim::NodeId, std::uint64_t> active_;
};

template <typename Derived, typename Config, typename Chan>
class ChannelCore : public ClusterComm, private ChannelState<Chan>
{
  public:
    ChannelCore(osim::Node &node, Config cfg) : node_(node), cfg_(cfg)
    {
        node_.intraNet().setHandler(node_.id(),
            [this](net::Frame &&f) {
                if (f.proto == net::Proto::Datagram)
                    receiveDatagram(std::move(f));
                else
                    self().handleFrame(std::move(f));
            });
        // A node crash wipes the endpoint without any wire traffic;
        // peers find out through their own traffic.
        node_.onCrash([this] { vanish(); });
    }

    void setCallbacks(CommCallbacks cbs) override { cbs_ = std::move(cbs); }

    void
    start() override
    {
        listening_ = true;
        appReceiving_ = true;
    }

    void
    connect(sim::NodeId peer) override
    {
        requestConnect(open(node_.simulation().allocId(), peer));
    }

    bool
    connected(sim::NodeId peer) const override
    {
        const Chan *c = findByPeer(peer);
        return c && c->established;
    }

    void
    sendDatagram(sim::NodeId peer, std::uint32_t kind,
                 sim::RcAny payload = {}) override
    {
        net::Frame f = frame(portOf(peer), kind, 0, cfg_.datagramBytes,
                             net::Proto::Datagram);
        f.payload = std::move(payload);
        node_.intraNet().send(std::move(f));
    }

    /** App-initiated close: the peer sees the reset notice, and no
     *  local callback fires but a blocked sender's wake-up. */
    void
    disconnect(sim::NodeId peer) override
    {
        if (auto it = activeChannel(peer); it != chans_.end())
            close(it, /*notify=*/true);
    }

    /** Process exit: established peers get the reset notice. */
    void
    shutdown() override
    {
        for (auto &[id, c] : chans_) {
            if (c.established)
                sendControl(c.peer, Derived::Reset, id);
        }
        closeAll();
        listening_ = false;
    }

    /** Node crash: wipe every channel without any wire traffic. */
    void
    vanish() override
    {
        closeAll();
        listening_ = false;
    }

    /** SIGSTOP / SIGCONT: SIGCONT delivers what queued meanwhile. */
    void
    setAppReceiving(bool on) override
    {
        appReceiving_ = on;
        if (on) {
            for (auto &[id, c] : chans_)
                scheduleDeliveries(c);
        }
    }

    sim::Tick
    sendCost(std::uint64_t bytes) const override
    {
        return cfg_.costs.sendFixed +
               static_cast<sim::Tick>(cfg_.costs.sendPerKb *
                                      static_cast<double>(bytes) / 1024.0);
    }

    const Config &config() const { return cfg_; }

    /** Snapshot state: the flags and every channel. */
    using Saved = ChannelState<Chan>;

    Saved save() const { return *this; }
    void restore(const Saved &s) { ChannelState<Chan>::operator=(s); }

  protected:
    using ChannelState<Chan>::listening_;
    using ChannelState<Chan>::appReceiving_;
    using ChannelState<Chan>::chans_;
    using ChannelState<Chan>::active_;

    using ChanIt = typename std::map<std::uint64_t, Chan>::iterator;

    Derived &self() { return static_cast<Derived &>(*this); }

    // Defaults for the optional hooks (see the file comment).
    void onEstablished(Chan &) {}
    void release(Chan &) {}
    sim::Tick deliveryDelay() const { return 0; }

    void
    deliver(sim::NodeId peer, InMsg &&in)
    {
        if (cbs_.onMessage)
            cbs_.onMessage(peer, std::move(in.msg));
    }

    /** The intra-network port of node @p peer, which is its id. */
    net::PortId
    portOf(sim::NodeId peer) const
    {
        if (peer >= node_.intraNet().numPorts())
            PANIC(Derived::traceTag, ": unknown peer node ", peer);
        return peer;
    }

    /** The channel active_ names for @p peer, or chans_.end(). */
    ChanIt
    activeChannel(sim::NodeId peer)
    {
        auto it = active_.find(peer);
        return it == active_.end() ? chans_.end() : chans_.find(it->second);
    }

    Chan *
    findByPeer(sim::NodeId peer)
    {
        auto it = activeChannel(peer);
        return it == chans_.end() ? nullptr : &it->second;
    }

    const Chan *
    findByPeer(sim::NodeId peer) const
    {
        return const_cast<ChannelCore *>(this)->findByPeer(peer);
    }

    /** The one frame builder: a frame from this node to port @p dst. */
    net::Frame
    frame(net::PortId dst, std::uint32_t kind, std::uint64_t conn,
          std::uint64_t bytes, net::Proto proto = Derived::wire) const
    {
        net::Frame f;
        f.srcPort = node_.id();
        f.dstPort = dst;
        f.proto = proto;
        f.kind = kind;
        f.conn = conn;
        f.bytes = bytes;
        return f;
    }

    /** Send a header-only control frame. */
    void
    sendControl(sim::NodeId peer, std::uint32_t kind, std::uint64_t conn)
    {
        node_.intraNet().send(
            frame(portOf(peer), kind, conn, cfg_.headerBytes));
    }

    /** Add channel @p id to @p peer and make it the active one. */
    Chan &
    open(std::uint64_t id, sim::NodeId peer)
    {
        Chan &c = chans_[id];
        c.id = id;
        c.peer = peer;
        self().initChannel(c);
        active_[peer] = id;
        return c;
    }

    /** (Re)send @p c's connect request and arm its retry timer. */
    void
    requestConnect(Chan &c)
    {
        sendControl(c.peer, Derived::ConnectReq, c.id);
        ++c.connectTries;
        std::uint64_t id = c.id;
        auto &events = node_.simulation().events();
        c.connectTimer.arm(events, events.now() + cfg_.connectTimeout,
                           [this, id] { connectTimedOut(id); });
    }

    void
    connectTimedOut(std::uint64_t id)
    {
        auto it = chans_.find(id);
        if (it == chans_.end() || it->second.established)
            return;
        if (it->second.connectTries >= cfg_.connectRetries)
            connectFailed(it);
        else
            requestConnect(it->second);
    }

    /** Give up on a pending connect (refused or out of retries). */
    void
    connectFailed(ChanIt it)
    {
        sim::NodeId peer = it->second.peer;
        close(it, /*notify=*/false);
        if (cbs_.onConnectFailed)
            cbs_.onConnectFailed(peer);
    }

    /** A connect request arrived. */
    void
    accept(const net::Frame &f)
    {
        sim::NodeId peer = f.srcPort;
        if (!listening_) {
            sendControl(peer, Derived::Refuse, f.conn);
            return;
        }
        if (auto it = activeChannel(peer); it != chans_.end()) {
            // Simultaneous-connect tie-break: the lower node id's
            // request wins; the higher id ignores the incoming one and
            // lets its own pending connect complete.
            if (!it->second.established && peer > node_.id())
                return;
            // A stale channel to this peer is replaced quietly; a
            // sender blocked on it is woken to retry on the new one.
            close(it, /*notify=*/false);
        }
        Chan &c = open(f.conn, peer);
        c.established = true;
        self().onEstablished(c);
        sendControl(peer, Derived::ConnectAck, f.conn);
        if (cbs_.onPeerConnected)
            cbs_.onPeerConnected(peer);
    }

    /** Our connect request was accepted. */
    void
    handleConnectAck(const net::Frame &f)
    {
        auto it = chans_.find(f.conn);
        if (it == chans_.end() || it->second.established)
            return;
        Chan &c = it->second;
        c.established = true;
        self().onEstablished(c);
        c.connectTimer.cancel();
        if (cbs_.onPeerConnected)
            cbs_.onPeerConnected(c.peer);
        self().pump(c);
    }

    /** Our connect request was refused. */
    void
    handleRefused(const net::Frame &f)
    {
        auto it = chans_.find(f.conn);
        if (it != chans_.end() && !it->second.established)
            connectFailed(it);
    }

    /** Break channel @p id, if it still exists (see close()). */
    void
    breakChannel(std::uint64_t id, BreakReason reason, bool notify)
    {
        if (auto it = chans_.find(id); it != chans_.end())
            close(it, notify, reason);
    }

    /**
     * The one way a single channel ends: erase it, drop the peer's
     * active entry if it names this channel, cancel its timers and free
     * what it holds, send the reset notice (@p notify), then report a
     * break (@p broken) if the channel was established.
     * Last, a sender blocked on it is woken: it must not wait on a
     * channel that is gone.
     */
    void
    close(ChanIt it, bool notify, std::optional<BreakReason> broken = {})
    {
        Chan c = std::move(it->second);
        chans_.erase(it);
        if (auto a = active_.find(c.peer);
            a != active_.end() && a->second == c.id)
            active_.erase(a);
        teardown(c);
        if (notify)
            sendControl(c.peer, Derived::Reset, c.id);
        if (broken && c.established && cbs_.onPeerBroken)
            cbs_.onPeerBroken(c.peer, *broken);
        if (c.senderBlocked && cbs_.onSendReady)
            cbs_.onSendReady();
    }

    /** Drop every channel with no notice and no callback. */
    void
    closeAll()
    {
        for (auto &[id, c] : chans_)
            teardown(c);
        chans_.clear();
        active_.clear();
    }

    void
    teardown(Chan &c)
    {
        c.connectTimer.cancel();
        self().release(c);
    }

    /** The channel a data frame is for; data for a channel this
     *  incarnation does not know is answered with the reset notice. */
    Chan *
    dataChannel(const net::Frame &f)
    {
        auto it = chans_.find(f.conn);
        if (it != chans_.end())
            return &it->second;
        sendControl(f.srcPort, Derived::Reset, f.conn);
        return nullptr;
    }

    /** Queue the message @p f carries on @p c for delivery. */
    void
    receive(Chan &c, const net::Frame &f)
    {
        InMsg in;
        in.corrupted = f.corrupted;
        if (f.payload)
            in.msg = *f.payload.get<AppMessage>();
        c.rcvQueue.push_back(std::move(in));
        scheduleDeliveries(c);
    }

    /** Put each queued, not yet scheduled message on the CPU, after
     *  the stack's delivery delay when it has one. */
    void
    scheduleDeliveries(Chan &c)
    {
        if (!appReceiving_)
            return;
        std::uint64_t id = c.id;
        sim::Tick delay = self().deliveryDelay();
        while (c.scheduledDeliveries < c.rcvQueue.size()) {
            const AppMessage &m = c.rcvQueue[c.scheduledDeliveries].msg;
            ++c.scheduledDeliveries;
            sim::Tick cost = cfg_.costs.recvFixed +
                static_cast<sim::Tick>(cfg_.costs.recvPerKb *
                    static_cast<double>(m.bytes) / 1024.0);
            auto run = [this, id] { deliverHead(id); };
            if (delay == 0) {
                node_.cpu().exec(cost, run);
            } else {
                node_.simulation().scheduleIn(delay,
                    [this, cost, run] {
                        node_.cpu().exec(cost, run);
                    });
            }
        }
    }

    void
    deliverHead(std::uint64_t id)
    {
        auto it = chans_.find(id);
        if (it == chans_.end() || it->second.rcvQueue.empty() ||
            it->second.scheduledDeliveries == 0)
            return;
        Chan &c = it->second;
        --c.scheduledDeliveries;
        if (!appReceiving_) {
            // SIGSTOP raced the delivery: leave the message queued for
            // the next setAppReceiving(true).
            return;
        }
        InMsg in = std::move(c.rcvQueue.front());
        c.rcvQueue.pop_front();
        self().deliver(c.peer, std::move(in));
    }

    /** An unreliable datagram arrived. */
    void
    receiveDatagram(net::Frame &&f)
    {
        if (!listening_ || !appReceiving_ || !node_.up())
            return;
        sim::NodeId peer = f.srcPort;
        std::uint32_t kind = f.kind;
        node_.cpu().exec(sim::usec(5),
            [this, peer, kind, payload = std::move(f.payload)] {
                if (listening_ && appReceiving_ && cbs_.onDatagram)
                    cbs_.onDatagram(peer, kind, payload);
            });
    }

    osim::Node &node_;
    Config cfg_;
    CommCallbacks cbs_;
};

} // namespace performa::proto

#endif // PERFORMA_PROTO_CHANNEL_CORE_HH
