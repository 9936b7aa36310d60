#include "proto/via.hh"

#include <utility>

#include "sim/logging.hh"

namespace performa::proto {

// VI identifiers come from Simulation::allocId(): unique within one
// simulated world, race-free across concurrent worlds.

void
ViaComm::start()
{
    // Pre-allocate: register every message buffer and descriptor up
    // front. This is the property that makes VIA immune to dynamic
    // kernel-memory exhaustion.
    if (!node_.pins().pin(cfg_.regBufferBytes)) {
        if (cbs_.onFatalError)
            cbs_.onFatalError("VIA: cannot register communication "
                              "buffers at start-up");
        return;
    }
    pinnedByUs_ += cfg_.regBufferBytes;
    ChannelCore::start();
}

void
ViaComm::shutdown()
{
    // Graceful process exit: tearing down VIs breaks the connections,
    // which peers interpret as node failure (PRESS semantics).
    ChannelCore::shutdown();
    if (pinnedByUs_ > 0) {
        node_.pins().unpin(pinnedByUs_);
        pinnedByUs_ = 0;
    }
}

void
ViaComm::vanish()
{
    ChannelCore::vanish();
    // The node is gone; the pin accounting was reset with the node.
    pinnedByUs_ = 0;
}

bool
ViaComm::registerMemory(std::uint64_t bytes)
{
    if (!node_.pins().pin(bytes))
        return false;
    pinnedByUs_ += bytes;
    return true;
}

void
ViaComm::deregisterMemory(std::uint64_t bytes)
{
    node_.pins().unpin(bytes);
    pinnedByUs_ = bytes > pinnedByUs_ ? 0 : pinnedByUs_ - bytes;
}

void
ViaComm::initChannel(ViaChannel &vi)
{
    vi.sndQueue.reserve(cfg_.credits);
    vi.rcvQueue.reserve(cfg_.credits);
}

SendStatus
ViaComm::send(sim::NodeId peer, AppMessage msg, const SendParams &params)
{
    ViaChannel *vi = findByPeer(peer);
    if (params.faulty()) {
        // VIPL diagnoses the bad descriptor as a fatal completion
        // error. For remote-write modes the error is additionally
        // reported at the other end of the transfer ("the fault is
        // reported at both ends of the communication").
        if (remoteWrite() && vi && vi->established)
            sendControl(peer, ErrorNotify, vi->id);
        return SendStatus::Fatal;
    }

    if (!vi || !vi->established)
        return SendStatus::NotConnected;

    if (vi->remoteCredits == 0) {
        vi->senderBlocked = true;
        return SendStatus::WouldBlock;
    }

    --vi->remoteCredits;
    ViaOutMsg out;
    out.wireBytes = msg.bytes + cfg_.headerBytes;
    out.msg = node_.simulation().makePayload<AppMessage>(std::move(msg));
    vi->sndQueue.push_back(std::move(out));
    pump(*vi);
    return SendStatus::Ok;
}

void
ViaComm::consumed(sim::NodeId peer)
{
    // PRESS's explicit flow-control message: return one credit.
    ViaChannel *vi = findByPeer(peer);
    if (!vi || !vi->established)
        return;
    sendControl(peer, Credit, vi->id);
}

void
ViaComm::pump(ViaChannel &vi)
{
    if (!vi.established || vi.inFlight || vi.sndQueue.empty())
        return;

    const ViaOutMsg &m = vi.sndQueue.front();
    net::Frame f = frame(portOf(vi.peer), Data, vi.id, m.wireBytes);
    f.payload = m.msg; // refcount bump, no copy
    vi.inFlight = true;

    std::uint64_t id = vi.id;
    node_.intraNet().send(std::move(f), [this, id](bool delivered) {
        auto it = chans_.find(id);
        if (it == chans_.end())
            return;
        if (!delivered) {
            // SAN loss: reliable-connection semantics are fail-stop.
            close(it, /*notify=*/true, BreakReason::TransportError);
            return;
        }
        it->second.inFlight = false;
        if (!it->second.sndQueue.empty())
            it->second.sndQueue.pop_front();
        pump(it->second);
    });
}

void
ViaComm::handleFrame(net::Frame &&f)
{
    // The cLAN NIC acknowledges in hardware, so frames are accepted
    // even while the host OS is frozen; they queue in NIC/host memory
    // until the CPU runs again.
    switch (f.kind) {
      case ConnReq:
        if (auto it = activeChannel(f.srcPort);
            listening_ && it != chans_.end() && it->first == f.conn) {
            // Duplicate ConnReq (our ack was lost): re-ack.
            sendControl(it->second.peer, ConnAck, f.conn);
        } else {
            accept(f);
        }
        break;
      case ConnAck:
        handleConnectAck(f);
        break;
      case ConnRefused:
        handleRefused(f);
        break;
      case Data:
        if (ViaChannel *vi = dataChannel(f))
            receive(*vi, f);
        break;
      case Credit: {
        auto it = chans_.find(f.conn);
        if (it == chans_.end() || !it->second.established)
            return;
        ViaChannel &vi = it->second;
        ++vi.remoteCredits;
        if (vi.senderBlocked) {
            vi.senderBlocked = false;
            if (cbs_.onSendReady)
                cbs_.onSendReady();
        }
        break;
      }
      case BreakNotify:
        breakChannel(f.conn, BreakReason::TransportError, /*notify=*/false);
        break;
      case ErrorNotify:
        // RDMA completion error surfaced by our NIC: fatal for the
        // process (PRESS fail-fast).
        if (listening_ && cbs_.onFatalError) {
            node_.cpu().exec(sim::usec(5), [this] {
                if (listening_ && cbs_.onFatalError)
                    cbs_.onFatalError("VIA: remote DMA completion error");
            });
        }
        break;
      default:
        PANIC("via: unknown frame kind ", f.kind);
    }
}

} // namespace performa::proto
