/**
 * @file
 * The bad-parameter fault-injection layer: a decorator interposed
 * between PRESS and the communication library, exactly like the
 * paper's software layer that "traps specific calls, modifies one or
 * more parameters, and then passes the call to the communication
 * library" (send()/recv() for sockets, VipPostSend()/VipPostRecv()
 * for VIPL).
 */

#ifndef PERFORMA_PROTO_INTERPOSE_HH
#define PERFORMA_PROTO_INTERPOSE_HH

#include <memory>
#include <optional>

#include "proto/comm.hh"

namespace performa::proto {

/** The three corrupted-parameter classes studied in the paper. */
enum class Corruption
{
    NullPointer, ///< data pointer replaced with NULL
    OffByNPtr,   ///< data pointer off by N bytes
    OffByNSize,  ///< buffer size off by N bytes
};

/** The mutable state of a FaultInterposer: the armed-corruption
 *  latches (a snapshot copies them whole). */
struct InterposerState
{
    std::optional<Corruption> armedSend_;
    std::optional<Corruption> armedRecv_;
    int armedN_ = 16;
};

/**
 * Decorator that corrupts the parameters of the next send or receive
 * call, then restores transparent pass-through.
 */
class FaultInterposer : public ClusterComm, private InterposerState
{
  public:
    explicit FaultInterposer(std::unique_ptr<ClusterComm> inner)
        : inner_(std::move(inner))
    {}

    /**
     * Corrupt the parameters of the next send()/VipPostSend() call.
     * @param n Offset in bytes for the off-by-N classes (0-100 per
     * the paper's observed dominant range).
     */
    void
    armSend(Corruption kind, int n = 16)
    {
        armedSend_ = kind;
        armedN_ = n;
    }

    /**
     * Corrupt the next posted receive descriptor / recv() buffer: the
     * next delivered message raises a fatal library error at this
     * (receiving) end.
     */
    void armRecv(Corruption kind, int n = 16)
    {
        armedRecv_ = kind;
        armedN_ = n;
    }

    bool sendArmed() const { return armedSend_.has_value(); }
    bool recvArmed() const { return armedRecv_.has_value(); }

    ClusterComm &inner() { return *inner_; }

    // ClusterComm interface -------------------------------------------

    void setCallbacks(CommCallbacks cbs) override;
    void start() override { inner_->start(); }
    void connect(sim::NodeId peer) override { inner_->connect(peer); }

    bool connected(sim::NodeId peer) const override
    {
        return inner_->connected(peer);
    }

    SendStatus send(sim::NodeId peer, AppMessage msg,
                    const SendParams &params) override;

    void sendDatagram(sim::NodeId peer, std::uint32_t kind,
                      sim::RcAny payload = {}) override
    {
        inner_->sendDatagram(peer, kind, std::move(payload));
    }

    void consumed(sim::NodeId peer) override { inner_->consumed(peer); }

    void disconnect(sim::NodeId peer) override
    {
        inner_->disconnect(peer);
    }

    void shutdown() override { inner_->shutdown(); }
    void vanish() override { inner_->vanish(); }

    void setAppReceiving(bool on) override
    {
        inner_->setAppReceiving(on);
    }

    sim::Tick sendCost(std::uint64_t bytes) const override
    {
        return inner_->sendCost(bytes);
    }

    /** Snapshot state: the armed-corruption latches (the inner comm
     *  endpoint is saved by its own hook). */
    using Saved = InterposerState;

    Saved save() const { return *this; }
    void restore(const Saved &s) { InterposerState::operator=(s); }

  private:
    std::unique_ptr<ClusterComm> inner_;
    CommCallbacks userCbs_;
};

} // namespace performa::proto

#endif // PERFORMA_PROTO_INTERPOSE_HH
