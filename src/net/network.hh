/**
 * @file
 * A star-topology network: every port hangs off one central switch via
 * a full-duplex link. This is the shape of the paper's testbed (a
 * Giganet cLAN switch connecting four server nodes and the client
 * machines).
 *
 * Fault hooks: each port's link can be cut, the switch can be taken
 * down, and each port (i.e. its host node) can be powered off. Frames
 * that meet a down component are dropped; the sender may register an
 * outcome callback, which models NIC-level (hardware) acknowledgement
 * for SAN-style fabrics. Stacks that should not get free drop
 * information (TCP) simply ignore the callback and run their own
 * timers.
 *
 * Hot-path design (§2.2 of DESIGN.md): an accepted frame is parked in
 * a slab of reusable in-flight records and the delivery event
 * captures only {network, slot} — a 16-byte POD that always fits
 * SmallFn's inline buffer, so a frame hop performs no allocation once
 * the slab has warmed up (the same trick osim::Cpu uses for its
 * completion events).
 */

#ifndef PERFORMA_NET_NETWORK_HH
#define PERFORMA_NET_NETWORK_HH

#include <cstdint>
#include <vector>

#include "net/frame.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::net {

/** Index of a port on a Network. */
using PortId = std::uint32_t;

/**
 * Fabric parameters. Defaults approximate a 1 Gb/s cLAN: ~5 us
 * end-to-end latency and 125 bytes/us of link bandwidth.
 */
struct NetworkConfig
{
    sim::Tick linkLatency = sim::usec(3);   ///< per-link propagation
    sim::Tick switchLatency = sim::usec(1); ///< store-and-forward cost
    double bytesPerUsec = 125.0;            ///< link bandwidth
};

/**
 * Per-port NIC counters. Sent/received count the port's own traffic;
 * the drop counters are charged to the *sending* port (the NIC that
 * failed to get its frame through), broken down by the first down
 * component on the path at transmission time, plus frames that met a
 * component which died while they were in flight.
 */
struct PortStats
{
    std::uint64_t framesSent = 0;     ///< frames accepted onto the wire
    std::uint64_t bytesSent = 0;
    std::uint64_t framesReceived = 0; ///< frames delivered to the handler
    std::uint64_t bytesReceived = 0;
    std::uint64_t dropPortDown = 0;   ///< an endpoint host was down
    std::uint64_t dropLinkDown = 0;   ///< a link to the switch was cut
    std::uint64_t dropSwitchDown = 0; ///< the central switch was down
    std::uint64_t dropDiedInFlight = 0; ///< path died during flight

    std::uint64_t
    drops() const
    {
        return dropPortDown + dropLinkDown + dropSwitchDown +
               dropDiedInFlight;
    }
};

/**
 * The mutable state of a Network: per-port fault, serialization and
 * counter state, the fabric-wide flags and counters, and the
 * in-flight slab. A snapshot copies it whole (frames copy by payload
 * refcount bump); the slab comes back slot for slot, so pending
 * delivery events, which capture {network, slot}, find their frames
 * again.
 */
struct NetworkState
{
    using Outcome = sim::SmallFn<void(bool delivered)>;

    struct Port
    {
        bool up = true;
        bool linkUp = true;
        sim::Tick txBusyUntil = 0; ///< uplink serialization horizon
        sim::Tick rxBusyUntil = 0; ///< downlink serialization horizon
        PortStats stats;
    };

    /**
     * A frame (or drop notification) between transmission and its
     * delivery event. Slab-pooled; the scheduled event captures only
     * {this, slot}.
     */
    struct InFlight
    {
        Frame frame;
        Outcome outcome;
        std::uint32_t next = 0; ///< free-list link while unused
        bool deliver = false;   ///< false: hardware-ack drop report
    };

    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);

    std::vector<Port> ports_;
    bool switchUp_ = true;
    std::uint64_t dropped_ = 0;
    std::uint64_t delivered_ = 0;
    std::vector<InFlight> inflight_;
    std::uint32_t freeHead_ = noSlot;
};

/**
 * The simulated fabric. One instance is used (faultable) for
 * intra-cluster traffic and a second (never faulted) for
 * client-server traffic, mirroring how Mendosus distinguishes the two
 * classes when injecting network faults.
 */
class Network : private NetworkState
{
  public:
    using Handler = sim::SmallFn<void(Frame &&)>;
    using Outcome = NetworkState::Outcome;

    Network(sim::Simulation &s, NetworkConfig cfg = {});

    /** Add a port; returns its id (sequential from 0). */
    PortId addPort();

    /** Install the delivery handler for @p port. */
    void setHandler(PortId port, Handler h);

    /** Power a port's host up or down (node crash / reboot). */
    void setPortUp(PortId port, bool up);

    /** Cut or restore the link between @p port and the switch. */
    void setLinkUp(PortId port, bool up);

    /** Take the central switch down or bring it back. */
    void setSwitchUp(bool up);

    bool portUp(PortId port) const { return ports_.at(port).up; }
    bool linkUp(PortId port) const { return ports_.at(port).linkUp; }
    bool switchUp() const { return switchUp_; }

    /**
     * Inject @p frame from @p frame.srcPort toward @p frame.dstPort.
     *
     * The frame's fate is decided from the component states along the
     * path at transmission time; @p outcome (if any) fires with
     * delivered=true at delivery or delivered=false shortly after the
     * drop (hardware-ack timeout).
     */
    void send(Frame &&frame, Outcome outcome = {});

    /** Frames dropped so far (for tests and stats). */
    std::uint64_t dropped() const { return dropped_; }

    /** Frames delivered so far. */
    std::uint64_t delivered() const { return delivered_; }

    /** NIC counters for @p port. */
    const PortStats &portStats(PortId port) const
    {
        return ports_.at(port).stats;
    }

    /** Number of ports (for stats iteration). */
    std::size_t numPorts() const { return ports_.size(); }

    /** Snapshot state (see NetworkState). Port handlers are wiring,
     *  installed at construction, and stay in place. */
    using Saved = NetworkState;

    Saved save() const { return *this; }

    void
    restore(const Saved &s)
    {
        if (s.ports_.size() != handlers_.size())
            PANIC("network restore with a different port count");
        NetworkState::operator=(s);
    }

  private:
    /** Serialization delay for @p bytes on one link. */
    sim::Tick txTime(std::uint64_t bytes) const;

    /** Take a free in-flight record (growing the slab if needed). */
    std::uint32_t acquireSlot();

    /** The delivery/drop event for the record in @p slot fired. */
    void fireInFlight(std::uint32_t slot);

    sim::Simulation &sim_;
    NetworkConfig cfg_;
    std::vector<Handler> handlers_; ///< by port
};

} // namespace performa::net

#endif // PERFORMA_NET_NETWORK_HH
