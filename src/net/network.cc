#include "net/network.hh"

#include <algorithm>
#include <utility>

namespace performa::net {

Network::Network(sim::Simulation &s, NetworkConfig cfg)
    : sim_(s), cfg_(cfg)
{
}

PortId
Network::addPort()
{
    ports_.emplace_back();
    handlers_.emplace_back();
    return static_cast<PortId>(ports_.size() - 1);
}

void
Network::setHandler(PortId port, Handler h)
{
    handlers_.at(port) = std::move(h);
}

void
Network::setPortUp(PortId port, bool up)
{
    ports_.at(port).up = up;
}

void
Network::setLinkUp(PortId port, bool up)
{
    ports_.at(port).linkUp = up;
}

void
Network::setSwitchUp(bool up)
{
    switchUp_ = up;
}

sim::Tick
Network::txTime(std::uint64_t bytes) const
{
    // Ceiling, not floor: a partially-filled final microsecond still
    // occupies the wire, and flooring would undercharge every size that
    // is not a multiple of bytesPerUsec.
    double us = static_cast<double>(bytes) / cfg_.bytesPerUsec;
    sim::Tick t = static_cast<sim::Tick>(us);
    if (static_cast<double>(t) < us)
        ++t;
    return t == 0 ? 1 : t;
}

std::uint32_t
Network::acquireSlot()
{
    if (freeHead_ != noSlot) {
        std::uint32_t slot = freeHead_;
        freeHead_ = inflight_[slot].next;
        return slot;
    }
    inflight_.emplace_back();
    return static_cast<std::uint32_t>(inflight_.size() - 1);
}

void
Network::send(Frame &&frame, Outcome outcome)
{
    Port &src = ports_.at(frame.srcPort);
    Port &dst = ports_.at(frame.dstPort);

    sim::Tick now = sim_.now();
    bool path_ok = src.up && src.linkUp && switchUp_ && dst.linkUp &&
                   dst.up;

    if (!path_ok) {
        ++dropped_;
        // Charge the sender's NIC with the first down component,
        // checking hosts before links before the switch.
        if (!src.up || !dst.up)
            ++src.stats.dropPortDown;
        else if (!src.linkUp || !dst.linkUp)
            ++src.stats.dropLinkDown;
        else
            ++src.stats.dropSwitchDown;
        if (outcome) {
            // Hardware-ack timeout: the sender-side NIC learns of the
            // loss after a short round-trip-scale delay. Park only the
            // callback; the event captures {this, slot}.
            sim::Tick when = now + 2 * cfg_.linkLatency +
                             cfg_.switchLatency + sim::usec(20);
            std::uint32_t slot = acquireSlot();
            InFlight &rec = inflight_[slot];
            rec.outcome = std::move(outcome);
            rec.deliver = false;
            sim_.schedule(when, [this, slot] { fireInFlight(slot); });
        }
        return;
    }

    src.stats.framesSent++;
    src.stats.bytesSent += frame.bytes;

    // Uplink serialization, store-and-forward, downlink serialization.
    sim::Tick ser = txTime(frame.bytes);
    sim::Tick tx_start = std::max(now, src.txBusyUntil);
    sim::Tick tx_done = tx_start + ser;
    src.txBusyUntil = tx_done;

    sim::Tick at_switch = tx_done + cfg_.linkLatency + cfg_.switchLatency;
    sim::Tick rx_start = std::max(at_switch, dst.rxBusyUntil);
    sim::Tick rx_done = rx_start + ser + cfg_.linkLatency;
    dst.rxBusyUntil = rx_done;

    std::uint32_t slot = acquireSlot();
    InFlight &rec = inflight_[slot];
    rec.frame = std::move(frame);
    rec.outcome = std::move(outcome);
    rec.deliver = true;
    sim_.schedule(rx_done, [this, slot] { fireInFlight(slot); });
}

void
Network::fireInFlight(std::uint32_t slot)
{
    // Move the record's contents out and release the slot *first*: the
    // handler below may send more frames, which can grow inflight_ and
    // invalidate the reference (and should be able to reuse the slot).
    Frame f = std::move(inflight_[slot].frame);
    Outcome cb = std::move(inflight_[slot].outcome);
    bool deliver = inflight_[slot].deliver;
    inflight_[slot].next = freeHead_;
    freeHead_ = slot;

    if (!deliver) {
        // Parked hardware-ack drop notification.
        cb(false);
        return;
    }

    Port &d = ports_.at(f.dstPort);
    // Re-check the receiving side: components that died while the
    // frame was in flight still cause a loss.
    if (!d.up || !d.linkUp || !switchUp_) {
        ++dropped_;
        ++ports_.at(f.srcPort).stats.dropDiedInFlight;
        if (cb)
            cb(false);
        return;
    }
    ++delivered_;
    d.stats.framesReceived++;
    d.stats.bytesReceived += f.bytes;
    if (const Handler &h = handlers_[f.dstPort])
        h(std::move(f));
    if (cb)
        cb(true);
}

} // namespace performa::net
