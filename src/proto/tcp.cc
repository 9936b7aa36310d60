#include "proto/tcp.hh"

#include <utility>

#include "sim/logging.hh"

namespace performa::proto {

// Connection identifiers come from Simulation::allocId(): unique
// within one simulated world, race-free across concurrent worlds.

TcpComm::TcpComm(osim::Node &node, TcpConfig cfg,
                 const std::unordered_map<sim::NodeId, net::PortId>
                     &peer_ports)
    : node_(node), cfg_(cfg), peerPorts_(peer_ports)
{
    for (const auto &[peer, port] : peerPorts_)
        portPeers_[port] = peer;

    node_.intraNet().setHandler(node_.intraPort(),
        [this](net::Frame &&f) { handleFrame(std::move(f)); });

    // A node crash wipes the kernel stack; peers only find out later
    // through retransmission timeouts or post-reboot RSTs.
    node_.onCrash([this] { vanish(); });
}

net::PortId
TcpComm::portOf(sim::NodeId peer) const
{
    auto it = peerPorts_.find(peer);
    if (it == peerPorts_.end())
        PANIC("tcp: unknown peer node ", peer);
    return it->second;
}

sim::NodeId
TcpComm::peerOfPort(net::PortId port) const
{
    auto it = portPeers_.find(port);
    return it == portPeers_.end() ? sim::invalidNode : it->second;
}

TcpComm::Conn *
TcpComm::findByPeer(sim::NodeId peer)
{
    auto it = active_.find(peer);
    if (it == active_.end())
        return nullptr;
    auto cit = conns_.find(it->second);
    return cit == conns_.end() ? nullptr : &cit->second;
}

const TcpComm::Conn *
TcpComm::findByPeer(sim::NodeId peer) const
{
    return const_cast<TcpComm *>(this)->findByPeer(peer);
}

sim::Tick
TcpComm::sendCost(std::uint64_t bytes) const
{
    return cfg_.costs.sendFixed +
           static_cast<sim::Tick>(cfg_.costs.sendPerKb *
                                  static_cast<double>(bytes) / 1024.0);
}

void
TcpComm::start()
{
    listening_ = true;
    appReceiving_ = true;
}

void
TcpComm::reset()
{
    for (auto &[id, c] : conns_)
        teardown(c);
    conns_.clear();
    active_.clear();
}

void
TcpComm::teardown(Conn &c)
{
    auto &events = node_.simulation().events();
    events.cancel(c.rtoTimer);
    events.cancel(c.memRetryTimer);
    events.cancel(c.synTimer);
    if (c.skbufHeld && !c.sndQueue.empty())
        node_.kernelMem().free(c.sndQueue.front().wireBytes);
}

void
TcpComm::disconnect(sim::NodeId peer)
{
    auto it = active_.find(peer);
    if (it == active_.end())
        return;
    std::uint64_t id = it->second;
    auto cit = conns_.find(id);
    if (cit == conns_.end()) {
        active_.erase(it);
        return;
    }
    // App-initiated close: reset the wire side, no break callback.
    Conn c = std::move(cit->second);
    conns_.erase(cit);
    active_.erase(it);
    teardown(c);
    sendRawRst(peer, id);
    if (c.senderBlocked && cbs_.onSendReady)
        cbs_.onSendReady();
}

void
TcpComm::shutdown()
{
    // Process exit: the OS closes the sockets, so peers get resets.
    for (auto &[id, c] : conns_) {
        if (c.established)
            sendRawRst(c.peer, c.id);
    }
    reset();
    listening_ = false;
}

void
TcpComm::vanish()
{
    reset();
    listening_ = false;
}

void
TcpComm::setAppReceiving(bool on)
{
    appReceiving_ = on;
    if (on) {
        for (auto &[id, c] : conns_)
            scheduleDeliveries(c);
    }
}

void
TcpComm::connect(sim::NodeId peer)
{
    std::uint64_t id = node_.simulation().allocId();
    Conn &c = conns_[id];
    c.id = id;
    c.peer = peer;
    c.rto = cfg_.rtoInitial;
    c.rcvQueue.reserve(cfg_.rcvQueueMsgs);
    active_[peer] = id;

    net::Frame syn;
    syn.srcPort = node_.intraPort();
    syn.dstPort = portOf(peer);
    syn.proto = net::Proto::Tcp;
    syn.kind = Syn;
    syn.conn = id;
    syn.bytes = cfg_.headerBytes;
    node_.intraNet().send(std::move(syn));

    c.synTries = 1;
    c.synTimer = node_.simulation().scheduleIn(cfg_.connectTimeout,
        [this, id] { handleSynRetry(id); });
}

/** SYN retransmission / give-up logic for a pending connect. */
void
TcpComm::handleSynRetry(std::uint64_t id)
{
    auto it = conns_.find(id);
    if (it == conns_.end() || it->second.established)
        return;
    Conn &cc = it->second;
    if (cc.synTries >= cfg_.connectRetries) {
        sim::NodeId p = cc.peer;
        if (active_.count(p) && active_[p] == id)
            active_.erase(p);
        conns_.erase(it);
        if (cbs_.onConnectFailed)
            cbs_.onConnectFailed(p);
        return;
    }
    ++cc.synTries;
    net::Frame f;
    f.srcPort = node_.intraPort();
    f.dstPort = portOf(cc.peer);
    f.proto = net::Proto::Tcp;
    f.kind = Syn;
    f.conn = id;
    f.bytes = cfg_.headerBytes;
    node_.intraNet().send(std::move(f));
    cc.synTimer = node_.simulation().scheduleIn(
        cfg_.connectTimeout, [this, id] { handleSynRetry(id); });
}

bool
TcpComm::connected(sim::NodeId peer) const
{
    const Conn *c = findByPeer(peer);
    return c && c->established;
}

SendStatus
TcpComm::send(sim::NodeId peer, AppMessage msg, const SendParams &params)
{
    if (params.nullPointer) {
        // Synchronous detection: copy_from_user faults immediately.
        return SendStatus::Efault;
    }

    Conn *c = findByPeer(peer);
    if (!c || !c->established)
        return SendStatus::NotConnected;

    std::uint64_t wire = msg.bytes + cfg_.headerBytes;
    if (c->sndBytes + msg.bytes > cfg_.sndBufBytes) {
        c->senderBlocked = true;
        return SendStatus::WouldBlock;
    }

    OutMsg out;
    out.wireBytes = wire;
    out.seq = c->seqNext++;
    // A bad offset or size does not fail the send call; it silently
    // corrupts the byte stream from this message onward.
    out.desync = params.ptrOffset != 0 || params.sizeDelta != 0;
    c->sndBytes += msg.bytes;
    // Pool the payload once; retransmissions reuse the same block.
    out.msg = node_.simulation().makePayload<AppMessage>(std::move(msg));
    c->sndQueue.push_back(std::move(out));
    pump(*c);
    return SendStatus::Ok;
}

void
TcpComm::sendDatagram(sim::NodeId peer, std::uint32_t kind,
                      sim::RcAny payload)
{
    // Heartbeats need kernel buffers too: under the memory-exhaustion
    // fault they silently stop flowing.
    if (!node_.kernelMem().alloc(cfg_.datagramBytes))
        return;
    node_.kernelMem().free(cfg_.datagramBytes);

    net::Frame f;
    f.srcPort = node_.intraPort();
    f.dstPort = portOf(peer);
    f.proto = net::Proto::Datagram;
    f.kind = kind;
    f.bytes = cfg_.datagramBytes;
    f.payload = std::move(payload);
    node_.intraNet().send(std::move(f));
}

void
TcpComm::consumed(sim::NodeId peer)
{
    // Receive-side skbufs are probed (alloc+free) at acceptance, so
    // nothing to release here; kept for interface symmetry with VIA
    // credit returns.
    (void)peer;
}

void
TcpComm::pump(Conn &c)
{
    if (!c.established || c.inFlight || c.sndQueue.empty())
        return;

    OutMsg &m = c.sndQueue.front();
    if (!c.skbufHeld) {
        if (!node_.kernelMem().alloc(m.wireBytes)) {
            // Out of kernel memory: the segment stays queued in the
            // OS; retry the allocation shortly.
            std::uint64_t id = c.id;
            c.memRetryTimer = node_.simulation().scheduleIn(
                sim::msec(10), [this, id] {
                    auto it = conns_.find(id);
                    if (it != conns_.end())
                        pump(it->second);
                });
            return;
        }
        c.skbufHeld = true;
    }

    net::Frame f;
    f.srcPort = node_.intraPort();
    f.dstPort = portOf(c.peer);
    f.proto = net::Proto::Tcp;
    f.kind = Data;
    f.conn = c.id;
    f.seq = m.seq;
    f.bytes = m.wireBytes;
    f.corrupted = m.desync;
    f.payload = m.msg; // refcount bump, no copy
    node_.intraNet().send(std::move(f));

    c.inFlight = true;
    armRto(c);
}

void
TcpComm::armRto(Conn &c)
{
    // Nearly every deadline is disarmed by an ack before it comes due.
    // So the deadline takes its seq now (exactly where a per-arm event
    // would), but an event goes on the queue only when none is due at
    // or before it. An earlier event re-arms itself under the live
    // (deadline, seq) when it fires, so the retransmit still happens
    // at the same (when, seq) as with one event per arm.
    auto &events = node_.simulation().events();
    c.rtoArmed = true;
    c.rtoAt = events.now() + c.rto;
    c.rtoSeq = events.reserveSeq();
    if (c.rtoTimer.pending()) {
        if (c.rtoTimerAt <= c.rtoAt)
            return;
        // An ack reset a backed-off rto: the new deadline comes first.
        events.cancel(c.rtoTimer);
    }
    scheduleRto(c);
}

void
TcpComm::scheduleRto(Conn &c)
{
    std::uint64_t id = c.id;
    std::uint64_t seq = c.rtoSeq;
    c.rtoTimerAt = c.rtoAt;
    c.rtoTimer = node_.simulation().events().schedule(c.rtoAt, seq,
        [this, id, seq] { onRtoEvent(id, seq); });
}

void
TcpComm::onRtoEvent(std::uint64_t conn_id, std::uint64_t seq)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    Conn &c = it->second;
    if (!c.rtoArmed)
        return; // acked since this event was scheduled
    if (c.rtoSeq != seq) {
        scheduleRto(c); // re-armed since: move to the live deadline
        return;
    }
    c.rtoArmed = false;
    onRtoFired(c);
}

void
TcpComm::onRtoFired(Conn &c)
{
    // Armed implies in flight: only pump() and this retransmit arm the
    // deadline, and the ack that ends the flight disarms it.
    sim::Tick now = node_.simulation().now();
    if (c.firstFailAt == 0)
        c.firstFailAt = now;
    if (now - c.firstFailAt >= cfg_.abortTimeout) {
        abortConn(c.id, BreakReason::Timeout, /*send_rst=*/true);
        return;
    }

    // Exponential backoff, then retransmit the in-flight message.
    c.rto = std::min<sim::Tick>(c.rto * 2, cfg_.rtoMax);
    if (node_.up() && !c.sndQueue.empty()) {
        OutMsg &m = c.sndQueue.front();
        net::Frame f;
        f.srcPort = node_.intraPort();
        f.dstPort = portOf(c.peer);
        f.proto = net::Proto::Tcp;
        f.kind = Data;
        f.conn = c.id;
        f.seq = m.seq;
        f.bytes = m.wireBytes;
        f.corrupted = m.desync;
        f.payload = m.msg; // same pooled block as the first transmit
        node_.intraNet().send(std::move(f));
    }
    armRto(c);
}

void
TcpComm::abortConn(std::uint64_t conn_id, BreakReason reason,
                   bool send_rst)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    Conn c = std::move(it->second);
    conns_.erase(it);
    if (active_.count(c.peer) && active_[c.peer] == conn_id)
        active_.erase(c.peer);

    teardown(c);

    if (send_rst)
        sendRawRst(c.peer, conn_id);

    sim::Trace::log(node_.simulation().now(), "tcp", "node ", node_.id(),
                    " connection to ", c.peer, " broken");

    bool was_established = c.established;
    bool was_blocked = c.senderBlocked;
    if (was_established && cbs_.onPeerBroken)
        cbs_.onPeerBroken(c.peer, reason);
    if (was_blocked && cbs_.onSendReady)
        cbs_.onSendReady();
}

void
TcpComm::sendRawRst(sim::NodeId peer, std::uint64_t conn_id)
{
    net::Frame f;
    f.srcPort = node_.intraPort();
    f.dstPort = portOf(peer);
    f.proto = net::Proto::Tcp;
    f.kind = Rst;
    f.conn = conn_id;
    f.bytes = cfg_.headerBytes;
    node_.intraNet().send(std::move(f));
}

void
TcpComm::handleFrame(net::Frame &&f)
{
    // A frozen node's kernel executes nothing: segments are neither
    // processed nor acknowledged, so peers keep retransmitting.
    if (!node_.up())
        return;

    if (f.proto == net::Proto::Datagram) {
        if (!listening_ || !appReceiving_)
            return;
        sim::NodeId peer = peerOfPort(f.srcPort);
        std::uint32_t kind = f.kind;
        node_.cpu().exec(sim::usec(5),
            [this, peer, kind, payload = std::move(f.payload)] {
                if (listening_ && appReceiving_ && cbs_.onDatagram)
                    cbs_.onDatagram(peer, kind, payload);
            });
        return;
    }

    switch (f.kind) {
      case Syn:
        handleSyn(f);
        break;
      case SynAck:
        handleSynAck(f);
        break;
      case Rst:
        handleRst(f);
        break;
      case Data:
        handleData(std::move(f));
        break;
      case Ack:
        handleAck(f);
        break;
      default:
        PANIC("tcp: unknown frame kind ", f.kind);
    }
}

void
TcpComm::handleSyn(const net::Frame &f)
{
    sim::NodeId peer = peerOfPort(f.srcPort);
    if (!listening_) {
        sendRawRst(peer, f.conn);
        return;
    }
    // Replace any stale connection to this peer.
    if (auto it = active_.find(peer); it != active_.end()) {
        auto cit = conns_.find(it->second);
        if (cit != conns_.end() && !cit->second.established &&
            peer > node_.id()) {
            // Simultaneous-connect tie-break: the lower node id's SYN
            // wins; the higher id ignores the incoming one and lets
            // its own pending connect complete.
            return;
        }
        bool was_blocked = false;
        if (cit != conns_.end()) {
            was_blocked = cit->second.senderBlocked;
            teardown(cit->second);
            conns_.erase(cit);
        }
        active_.erase(it);
        // A sender blocked on the replaced connection must retry on
        // the new one.
        if (was_blocked && cbs_.onSendReady)
            cbs_.onSendReady();
    }

    Conn &c = conns_[f.conn];
    c.id = f.conn;
    c.peer = peer;
    c.established = true;
    c.rto = cfg_.rtoInitial;
    c.rcvQueue.reserve(cfg_.rcvQueueMsgs);
    active_[peer] = f.conn;

    net::Frame ack;
    ack.srcPort = node_.intraPort();
    ack.dstPort = f.srcPort;
    ack.proto = net::Proto::Tcp;
    ack.kind = SynAck;
    ack.conn = f.conn;
    ack.bytes = cfg_.headerBytes;
    node_.intraNet().send(std::move(ack));

    if (cbs_.onPeerConnected)
        cbs_.onPeerConnected(peer);
}

void
TcpComm::handleSynAck(const net::Frame &f)
{
    auto it = conns_.find(f.conn);
    if (it == conns_.end() || it->second.established)
        return;
    Conn &c = it->second;
    c.established = true;
    node_.simulation().events().cancel(c.synTimer);
    if (cbs_.onPeerConnected)
        cbs_.onPeerConnected(c.peer);
    pump(c);
}

void
TcpComm::handleRst(const net::Frame &f)
{
    auto it = conns_.find(f.conn);
    if (it == conns_.end())
        return;
    Conn &c = it->second;
    if (!c.established) {
        // Connect refused.
        sim::NodeId peer = c.peer;
        node_.simulation().events().cancel(c.synTimer);
        if (active_.count(peer) && active_[peer] == f.conn)
            active_.erase(peer);
        conns_.erase(it);
        if (cbs_.onConnectFailed)
            cbs_.onConnectFailed(peer);
        return;
    }
    abortConn(f.conn, BreakReason::ConnReset, /*send_rst=*/false);
}

void
TcpComm::handleData(net::Frame &&f)
{
    auto it = conns_.find(f.conn);
    if (it == conns_.end()) {
        // Segment for a connection this incarnation does not know.
        sendRawRst(peerOfPort(f.srcPort), f.conn);
        return;
    }
    Conn &c = it->second;

    if (f.seq < c.seqExpected) {
        // Duplicate (our ack was lost); re-ack so the sender advances.
        net::Frame ack;
        ack.srcPort = node_.intraPort();
        ack.dstPort = f.srcPort;
        ack.proto = net::Proto::Tcp;
        ack.kind = Ack;
        ack.conn = f.conn;
        ack.seq = f.seq;
        ack.bytes = cfg_.headerBytes;
        node_.intraNet().send(std::move(ack));
        return;
    }
    if (f.seq > c.seqExpected)
        return; // out of order (cannot happen with one in flight)

    // Acceptance needs receive-queue space and an skbuf.
    if (c.rcvQueue.size() >= cfg_.rcvQueueMsgs)
        return; // silently dropped; sender retransmits
    if (!node_.kernelMem().alloc(f.bytes))
        return; // memory exhaustion: inbound segments are dropped
    node_.kernelMem().free(f.bytes);

    ++c.seqExpected;

    InMsg in;
    in.peer = c.peer;
    in.desync = f.corrupted;
    if (f.payload)
        in.msg = *f.payload.get<AppMessage>();
    c.rcvQueue.push_back(std::move(in));

    net::Frame ack;
    ack.srcPort = node_.intraPort();
    ack.dstPort = f.srcPort;
    ack.proto = net::Proto::Tcp;
    ack.kind = Ack;
    ack.conn = f.conn;
    ack.seq = f.seq;
    ack.bytes = cfg_.headerBytes;
    node_.intraNet().send(std::move(ack));

    scheduleDeliveries(c);
}

void
TcpComm::handleAck(const net::Frame &f)
{
    auto it = conns_.find(f.conn);
    if (it == conns_.end())
        return;
    Conn &c = it->second;
    if (!c.inFlight || c.sndQueue.empty() ||
        c.sndQueue.front().seq != f.seq)
        return;

    c.rtoArmed = false; // its event stays queued; see armRto
    if (c.skbufHeld)
        node_.kernelMem().free(c.sndQueue.front().wireBytes);
    c.skbufHeld = false;
    c.sndBytes -= c.sndQueue.front().msg->bytes;
    c.sndQueue.pop_front();
    c.inFlight = false;
    c.firstFailAt = 0;
    c.rto = cfg_.rtoInitial;

    maybeUnblockSender(c);
    pump(c);
}

TcpComm::Conn
TcpComm::cloneConn(const Conn &c)
{
    Conn out;
    out.id = c.id;
    out.peer = c.peer;
    out.established = c.established;
    out.sndQueue = c.sndQueue.clone();
    out.sndBytes = c.sndBytes;
    out.seqNext = c.seqNext;
    out.inFlight = c.inFlight;
    out.skbufHeld = c.skbufHeld;
    out.rto = c.rto;
    out.firstFailAt = c.firstFailAt;
    out.rtoArmed = c.rtoArmed;
    out.rtoAt = c.rtoAt;
    out.rtoSeq = c.rtoSeq;
    out.rtoTimer = c.rtoTimer;
    out.rtoTimerAt = c.rtoTimerAt;
    out.memRetryTimer = c.memRetryTimer;
    out.senderBlocked = c.senderBlocked;
    out.synTries = c.synTries;
    out.synTimer = c.synTimer;
    out.seqExpected = c.seqExpected;
    out.rcvQueue = c.rcvQueue.clone();
    out.scheduledDeliveries = c.scheduledDeliveries;
    return out;
}

TcpComm::Saved
TcpComm::save() const
{
    Saved s;
    s.listening = listening_;
    s.appReceiving = appReceiving_;
    for (const auto &[id, c] : conns_)
        s.conns.emplace(id, cloneConn(c));
    s.active = active_;
    return s;
}

void
TcpComm::restore(const Saved &s)
{
    listening_ = s.listening;
    appReceiving_ = s.appReceiving;
    conns_.clear();
    for (const auto &[id, c] : s.conns)
        conns_.emplace(id, cloneConn(c));
    active_ = s.active;
}

void
TcpComm::maybeUnblockSender(Conn &c)
{
    if (c.senderBlocked && c.sndBytes <= (cfg_.sndBufBytes * 3) / 4) {
        c.senderBlocked = false;
        if (cbs_.onSendReady)
            cbs_.onSendReady();
    }
}

void
TcpComm::scheduleDeliveries(Conn &c)
{
    if (!appReceiving_)
        return;
    std::uint64_t id = c.id;
    while (c.scheduledDeliveries < c.rcvQueue.size()) {
        const InMsg &in = c.rcvQueue[c.scheduledDeliveries];
        ++c.scheduledDeliveries;
        sim::Tick cost = cfg_.costs.recvFixed +
            static_cast<sim::Tick>(cfg_.costs.recvPerKb *
                static_cast<double>(in.msg.bytes) / 1024.0);
        node_.cpu().exec(cost, [this, id] {
            auto it = conns_.find(id);
            if (it == conns_.end() || it->second.rcvQueue.empty() ||
                it->second.scheduledDeliveries == 0)
                return;
            --it->second.scheduledDeliveries;
            if (!appReceiving_) {
                // SIGSTOP raced the delivery: leave the message queued
                // for the next setAppReceiving(true).
                return;
            }
            InMsg msg = std::move(it->second.rcvQueue.front());
            it->second.rcvQueue.pop_front();
            if (msg.desync) {
                // The framing layer on top of the byte stream reads
                // garbage lengths: unrecoverable.
                if (cbs_.onFatalError)
                    cbs_.onFatalError("TCP byte stream desynchronized "
                                      "by bad send parameters");
                return;
            }
            if (cbs_.onMessage)
                cbs_.onMessage(msg.peer, std::move(msg.msg));
        });
    }
}

} // namespace performa::proto
