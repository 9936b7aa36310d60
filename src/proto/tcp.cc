#include "proto/tcp.hh"

#include <utility>

#include "sim/logging.hh"

namespace performa::proto {

// Connection identifiers come from Simulation::allocId(): unique
// within one simulated world, race-free across concurrent worlds.

void
TcpComm::initChannel(TcpChannel &c)
{
    c.rto = cfg_.rtoInitial;
    c.rcvQueue.reserve(cfg_.rcvQueueMsgs);
}

void
TcpComm::release(TcpChannel &c)
{
    c.rtoTimer.cancel();
    c.memRetryTimer.cancel();
    if (c.skbufHeld && !c.sndQueue.empty())
        node_.kernelMem().free(c.sndQueue.front().wireBytes);
}

void
TcpComm::deliver(sim::NodeId peer, InMsg &&in)
{
    if (in.corrupted) {
        if (cbs_.onFatalError)
            cbs_.onFatalError("TCP byte stream desynchronized "
                              "by bad send parameters");
        return;
    }
    ChannelCore::deliver(peer, std::move(in));
}

SendStatus
TcpComm::send(sim::NodeId peer, AppMessage msg, const SendParams &params)
{
    if (params.nullPointer) {
        // Synchronous detection: copy_from_user faults immediately.
        return SendStatus::Efault;
    }

    TcpChannel *c = findByPeer(peer);
    if (!c || !c->established)
        return SendStatus::NotConnected;

    std::uint64_t wire = msg.bytes + cfg_.headerBytes;
    // An empty queue takes any message, as a blocking send() larger
    // than SO_SNDBUF completes; otherwise one over the buffer waits.
    if (c->sndBytes > 0 && c->sndBytes + msg.bytes > cfg_.sndBufBytes) {
        c->senderBlocked = true;
        return SendStatus::WouldBlock;
    }

    TcpOutMsg out;
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
    ChannelCore::sendDatagram(peer, kind, std::move(payload));
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
TcpComm::pump(TcpChannel &c)
{
    if (!c.established || c.inFlight || c.sndQueue.empty())
        return;

    if (!c.skbufHeld) {
        if (!node_.kernelMem().alloc(c.sndQueue.front().wireBytes)) {
            // Out of kernel memory: the segment stays queued in the
            // OS and waits for a buffer. One wait per connection: if a
            // retry is already pending, it covers this call too.
            if (c.memRetryTimer.pending())
                return;
            std::uint64_t id = c.id;
            auto &events = node_.simulation().events();
            c.memRetryTimer.arm(events, events.now() + sim::msec(10),
                [this, id] {
                    auto it = chans_.find(id);
                    if (it != chans_.end())
                        pump(it->second);
                });
            return;
        }
        c.skbufHeld = true;
    }

    transmitHead(c);
    c.inFlight = true;
    armRto(c);
}

void
TcpComm::transmitHead(const TcpChannel &c)
{
    const TcpOutMsg &m = c.sndQueue.front();
    net::Frame f = frame(portOf(c.peer), Data, c.id, m.wireBytes);
    f.seq = m.seq;
    f.corrupted = m.desync;
    f.payload = m.msg; // refcount bump: every transmit shares the block
    node_.intraNet().send(std::move(f));
}

void
TcpComm::armRto(TcpChannel &c)
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
        c.rtoTimer.cancel();
    }
    scheduleRto(c);
}

void
TcpComm::scheduleRto(TcpChannel &c)
{
    std::uint64_t id = c.id;
    std::uint64_t seq = c.rtoSeq;
    c.rtoTimerAt = c.rtoAt;
    c.rtoTimer.arm(node_.simulation().events(), c.rtoAt, seq,
                   [this, id, seq] { onRtoEvent(id, seq); });
}

void
TcpComm::onRtoEvent(std::uint64_t conn_id, std::uint64_t seq)
{
    auto it = chans_.find(conn_id);
    if (it == chans_.end())
        return;
    TcpChannel &c = it->second;
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
TcpComm::onRtoFired(TcpChannel &c)
{
    // Armed implies in flight: only pump() and this retransmit arm the
    // deadline, and the ack that ends the flight disarms it.
    sim::Tick now = node_.simulation().now();
    if (c.firstFailAt == 0)
        c.firstFailAt = now;
    if (now - c.firstFailAt >= cfg_.abortTimeout) {
        breakChannel(c.id, BreakReason::Timeout, /*notify=*/true);
        return;
    }

    // Exponential backoff, then retransmit the in-flight message.
    c.rto = std::min<sim::Tick>(c.rto * 2, cfg_.rtoMax);
    if (node_.up() && !c.sndQueue.empty())
        transmitHead(c);
    armRto(c);
}

void
TcpComm::handleFrame(net::Frame &&f)
{
    // A frozen node's kernel executes nothing: segments are neither
    // processed nor acknowledged, so peers keep retransmitting.
    if (!node_.up())
        return;

    switch (f.kind) {
      case Syn:
        accept(f);
        break;
      case SynAck:
        handleConnectAck(f);
        break;
      case Rst:
        // A reset refuses a pending connect and breaks an established
        // connection.
        if (auto it = chans_.find(f.conn);
            it != chans_.end() && it->second.established)
            close(it, /*notify=*/false, BreakReason::ConnReset);
        else
            handleRefused(f);
        break;
      case Data:
        handleData(f);
        break;
      case Ack:
        handleAck(f);
        break;
      default:
        PANIC("tcp: unknown frame kind ", f.kind);
    }
}

void
TcpComm::sendAck(const net::Frame &f)
{
    net::Frame ack = frame(f.srcPort, Ack, f.conn, cfg_.headerBytes);
    ack.seq = f.seq;
    node_.intraNet().send(std::move(ack));
}

void
TcpComm::handleData(const net::Frame &f)
{
    TcpChannel *c = dataChannel(f);
    if (!c)
        return;

    if (f.seq < c->seqExpected) {
        // Duplicate (our ack was lost); re-ack so the sender advances.
        sendAck(f);
        return;
    }
    if (f.seq > c->seqExpected)
        return; // out of order (cannot happen with one in flight)

    // Acceptance needs receive-queue space and an skbuf.
    if (c->rcvQueue.size() >= cfg_.rcvQueueMsgs)
        return; // silently dropped; sender retransmits
    if (!node_.kernelMem().alloc(f.bytes))
        return; // memory exhaustion: inbound segments are dropped
    node_.kernelMem().free(f.bytes);

    ++c->seqExpected;
    sendAck(f);
    receive(*c, f);
}

void
TcpComm::handleAck(const net::Frame &f)
{
    auto it = chans_.find(f.conn);
    if (it == chans_.end())
        return;
    TcpChannel &c = it->second;
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

void
TcpComm::maybeUnblockSender(TcpChannel &c)
{
    if (c.senderBlocked && c.sndBytes <= (cfg_.sndBufBytes * 3) / 4) {
        c.senderBlocked = false;
        if (cbs_.onSendReady)
            cbs_.onSendReady();
    }
}

} // namespace performa::proto
