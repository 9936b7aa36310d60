/**
 * @file
 * The intra-cluster communication interface PRESS programs against.
 *
 * Two implementations exist, mirroring the paper: a kernel-level TCP
 * byte-stream stack (TcpComm) and a user-level VIA stack (ViaComm)
 * with three messaging modes (send/receive, remote write, remote
 * write + zero copy). The interface is deliberately narrow so that
 * the server's behaviour differences under faults come from the
 * substrates, not from different server code; both stacks share one
 * channel core (channel_core.hh) and differ only where the substrates
 * do.
 */

#ifndef PERFORMA_PROTO_COMM_HH
#define PERFORMA_PROTO_COMM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/pool.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::proto {

/**
 * An application-level message. The comm layers only care about the
 * size (which drives copies and wire time); @c body carries the
 * PRESS-level content.
 */
struct AppMessage
{
    std::uint32_t type = 0;        ///< PRESS message type
    std::uint64_t bytes = 0;       ///< logical payload size
    sim::RcAny body;               ///< PRESS payload (pooled, type-erased)
};

/**
 * Parameters of one send call as they reach the communication
 * library. A bad-parameter fault arms a faulty value in the PRESS
 * server, whose next send call carries it (the paper's layer that
 * traps the next library call and changes its parameters); an
 * all-zero value is a clean call.
 */
struct SendParams
{
    bool nullPointer = false;  ///< data pointer is NULL
    std::int32_t ptrOffset = 0; ///< off-by-N data pointer (bytes)
    std::int64_t sizeDelta = 0; ///< off-by-N size (bytes)

    bool faulty() const
    {
        return nullPointer || ptrOffset != 0 || sizeDelta != 0;
    }
};

/** Synchronous result of a send call. */
enum class SendStatus
{
    Ok,         ///< accepted (delivery is asynchronous)
    WouldBlock, ///< no buffer space / credits; wait for onSendReady
    NotConnected, ///< no established channel to that peer
    Efault,     ///< synchronous bad-pointer detection (TCP)
    Fatal,      ///< unrecoverable library error (VIA descriptor fault)
};

/** Why a channel to a peer broke. */
enum class BreakReason
{
    ConnReset,      ///< peer closed / RST (process died or rebooted)
    Timeout,        ///< retransmission gave up (TCP abort)
    TransportError, ///< SAN-level loss => fail-stop break (VIA)
};

/** Callbacks a ClusterComm user installs. */
struct CommCallbacks
{
    /** A message from @p peer was handed to the application. */
    sim::SmallFn<void(sim::NodeId, AppMessage &&)> onMessage;

    /** A channel to @p peer is now established (either initiative). */
    sim::SmallFn<void(sim::NodeId)> onPeerConnected;

    /** An outgoing connect() to @p peer failed. */
    sim::SmallFn<void(sim::NodeId)> onConnectFailed;

    /** The channel to @p peer broke. */
    sim::SmallFn<void(sim::NodeId, BreakReason)> onPeerBroken;

    /** Space/credits freed after a SendStatus::WouldBlock. */
    sim::SmallFn<void()> onSendReady;

    /**
     * The library hit a fatal error (bad descriptor, framing desync).
     * PRESS reacts fail-fast: it terminates the process.
     */
    sim::SmallFn<void(const std::string &)> onFatalError;

    /** An unreliable datagram (heartbeat, join message) arrived. */
    sim::SmallFn<void(sim::NodeId, std::uint32_t, sim::RcAny)> onDatagram;
};

/**
 * Abstract intra-cluster communication endpoint for one server
 * process. Lifetime follows the process: start() on process start,
 * shutdown() on graceful exit, vanish() when the node crashes.
 */
class ClusterComm
{
  public:
    virtual ~ClusterComm() = default;

    /** Install application callbacks (before start()). */
    virtual void setCallbacks(CommCallbacks cbs) = 0;

    /** Process started: allocate endpoints and start listening. */
    virtual void start() = 0;

    /** Asynchronously connect to @p peer (result via callbacks). */
    virtual void connect(sim::NodeId peer) = 0;

    /** @return true if a channel to @p peer is established. */
    virtual bool connected(sim::NodeId peer) const = 0;

    /**
     * Send @p msg to @p peer. @p params carries the (possibly
     * corrupted) call parameters.
     */
    virtual SendStatus send(sim::NodeId peer, AppMessage msg,
                            const SendParams &params = {}) = 0;

    /**
     * Fire-and-forget datagram (heartbeats, join protocol). Consumes
     * kernel memory on TCP-style stacks; silently dropped on loss.
     */
    virtual void sendDatagram(sim::NodeId peer, std::uint32_t kind,
                              sim::RcAny payload = {}) = 0;

    /**
     * The application consumed one received message; used by the
     * flow-control machinery (TCP window / VIA credits).
     */
    virtual void consumed(sim::NodeId peer) = 0;

    /**
     * Close the channel to one peer (reconfiguration excluded it).
     * The peer sees a reset/break; no local callback fires.
     */
    virtual void disconnect(sim::NodeId peer) = 0;

    /** Graceful process exit: close channels (peers see RST/break). */
    virtual void shutdown() = 0;

    /** Node crash: wipe local state without any wire traffic. */
    virtual void vanish() = 0;

    /** SIGSTOP / SIGCONT: gate delivery of messages to the app. */
    virtual void setAppReceiving(bool on) = 0;

    /**
     * CPU microseconds the calling thread burns to issue a send of
     * @p bytes (syscall + copies for TCP; descriptor post for VIA).
     */
    virtual sim::Tick sendCost(std::uint64_t bytes) const = 0;
};

} // namespace performa::proto

#endif // PERFORMA_PROTO_COMM_HH
