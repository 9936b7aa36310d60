/**
 * @file
 * Model of a user-level VIA (Virtual Interface Architecture) provider
 * over a cLAN-style SAN, with the properties the paper's evaluation
 * depends on:
 *
 *  - reliable-connection fail-stop semantics: any packet loss breaks
 *    the connection immediately (SAN fabrics treat loss as
 *    catastrophic, not congestion), so fault detection is near
 *    instantaneous;
 *  - pre-allocated resources: descriptors and message buffers are
 *    registered (pinned) at start-up, making the stack immune to
 *    kernel-memory exhaustion, unlike TCP;
 *  - credit-based flow control driven by explicit flow-control
 *    messages (as PRESS implements over VIA);
 *  - three messaging modes matching VIA-PRESS-0/3/5: interrupt-driven
 *    send/receive, remote memory writes with receiver polling, and
 *    remote writes with zero-copy data transfers;
 *  - descriptor-status error reporting: a bad parameter surfaces as a
 *    fatal completion error at the sender, and for remote-write modes
 *    at BOTH endpoints of the transfer;
 *  - hardware (NIC-level) acknowledgement: a frozen host's NIC still
 *    acks, so connections survive OS hangs, but credits stop being
 *    returned and senders stall.
 */

#ifndef PERFORMA_PROTO_VIA_HH
#define PERFORMA_PROTO_VIA_HH

#include <cstdint>

#include "proto/channel_core.hh"

namespace performa::proto {

/** Messaging mode, mapping to the VIA-PRESS versions. */
enum class ViaMode
{
    SendRecv,            ///< VIA-PRESS-0: regular messages, interrupts
    RemoteWrite,         ///< VIA-PRESS-3: RDMA writes, polling
    RemoteWriteZeroCopy, ///< VIA-PRESS-5: RDMA + zero-copy data
};

/** Tunables for the VIA model. */
struct ViaConfig
{
    ViaMode mode = ViaMode::SendRecv;
    std::uint32_t credits = 32;    ///< pre-posted descriptors / slots
    /** Mean extra delivery latency for polled (RDMA) modes. */
    sim::Tick pollDelay = sim::usec(50);
    /** Message buffers registered (pinned) at service start. */
    std::uint64_t regBufferBytes = 4ull << 20;
    std::uint64_t headerBytes = 40;
    std::uint64_t datagramBytes = 64;
    sim::Tick connectTimeout = sim::sec(1);
    int connectRetries = 3;
    /** Default CPU costs: calibrated VIA send/receive values (see
     *  press::viaConfigFor, which PRESS deployments use). */
    CommCosts costs{sim::usec(21), 9.0, sim::usec(42), 9.0};
};

/** Pooled once at send(); the wire frame shares the handle. */
struct ViaOutMsg
{
    sim::Rc<AppMessage> msg;
    std::uint64_t wireBytes;
};

/** One VI: the shared channel plus the sender's credits. */
struct ViaChannel : Channel<ViaOutMsg>
{
    std::uint32_t remoteCredits = 0;
};

/** What a VIA endpoint holds beside its channel core's state. */
struct ViaState
{
    std::uint64_t pinnedByUs_ = 0; ///< total we registered (for shutdown)
};

/**
 * The VIA provider + VIPL library endpoint for one server process.
 */
class ViaComm : public ChannelCore<ViaComm, ViaConfig, ViaChannel>,
                private ViaState
{
  public:
    using ChannelCore::ChannelCore;

    void start() override;
    SendStatus send(sim::NodeId peer, AppMessage msg,
                    const SendParams &params) override;
    void consumed(sim::NodeId peer) override;
    void shutdown() override;
    void vanish() override;

    /**
     * Register (pin) application memory, e.g. VIA-PRESS-5's cached
     * file pages. @return false when the pinnable-page budget is
     * exhausted.
     */
    bool registerMemory(std::uint64_t bytes);

    /** Deregister (unpin) previously registered memory. */
    void deregisterMemory(std::uint64_t bytes);

    /** @return true if start-up registration succeeded. */
    bool started() const { return listening_; }

    /** Snapshot state: the channel core's plus the pinned bytes. */
    struct Saved : ChannelCore::Saved, ViaState
    {};

    Saved save() const { return {ChannelCore::save(), ViaState(*this)}; }

    void
    restore(const Saved &s)
    {
        ChannelCore::restore(s);
        ViaState::operator=(s);
    }

  private:
    friend ChannelCore;

    enum FrameKind : std::uint32_t
    {
        ConnReq,
        ConnAck,
        ConnRefused,
        Data,
        Credit,
        BreakNotify, ///< graceful close / error: peer should break too
        ErrorNotify, ///< RDMA completion error raised at the remote end
    };

    static constexpr std::uint32_t ConnectReq = ConnReq;
    static constexpr std::uint32_t ConnectAck = ConnAck;
    static constexpr std::uint32_t Refuse = ConnRefused;
    static constexpr std::uint32_t Reset = BreakNotify;
    static constexpr net::Proto wire = net::Proto::Via;
    static constexpr const char *traceTag = "via";

    void initChannel(ViaChannel &vi);
    void onEstablished(ViaChannel &vi) { vi.remoteCredits = cfg_.credits; }
    /** The message sits in the remote-write buffer until the server's
     *  main loop polls it; send/receive mode takes an interrupt. */
    sim::Tick deliveryDelay() const { return polled() ? cfg_.pollDelay : 0; }

    void handleFrame(net::Frame &&f);
    void pump(ViaChannel &vi);

    bool polled() const { return cfg_.mode != ViaMode::SendRecv; }
    bool remoteWrite() const { return cfg_.mode != ViaMode::SendRecv; }
};

} // namespace performa::proto

#endif // PERFORMA_PROTO_VIA_HH
