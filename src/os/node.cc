#include "os/node.hh"

#include "sim/logging.hh"

namespace performa::osim {

Node::Node(sim::Simulation &s, sim::NodeId id, net::Network &intra_net,
           net::Network &client_net, NodeConfig cfg)
    : NodeState(cfg), sim_(s), id_(id), intraNet_(intra_net),
      clientNet_(client_net), cfg_(cfg), cpu_(s)
{
    if (intraNet_.addPort() != id_ || clientNet_.addPort() != id_)
        PANIC("node ", id_, " must own port ", id_, " on both networks");
}

void
Node::setPorts(bool up)
{
    intraNet_.setPortUp(id_, up);
    clientNet_.setPortUp(id_, up);
}

void
Node::crash(sim::Tick downtime)
{
    if (state_ == State::Down)
        return;
    if (state_ == State::Frozen) {
        // Crashing while frozen: the pending unfreeze event will see
        // the node rebooted and do nothing, so undo the freeze's CPU
        // pause here or it would leak past the reboot.
        cpu_.resume();
    }
    state_ = State::Down;
    setPorts(false);
    cpu_.clear();
    cpu_.pause(); // nothing executes while down
    kernelMem_.reset();
    pins_.reset();
    if (service_ && service_->alive())
        service_->terminate(/*silent=*/true);
    if (crashFn_)
        crashFn_();
    sim_.scheduleIn(downtime, [this] { reboot(); });
}

void
Node::reboot()
{
    ++incarnation_;
    state_ = State::Up;
    setPorts(true);
    cpu_.resume();
    // Mendosus starts another PRESS process automatically after boot.
    if (service_) {
        sim_.scheduleIn(cfg_.serviceStartDelay, [this] {
            if (state_ == State::Up && service_ && !service_->alive())
                service_->start();
        });
    }
}

void
Node::freeze(sim::Tick duration)
{
    if (state_ != State::Up)
        return;
    state_ = State::Frozen;
    cpu_.pause();
    sim_.scheduleIn(duration, [this] {
        if (state_ != State::Frozen)
            return; // crashed while frozen
        state_ = State::Up;
        cpu_.resume();
    });
}

void
Node::attachService(Service *svc)
{
    service_ = svc;
}

void
Node::startServiceNow()
{
    if (!service_)
        PANIC("node ", id_, " has no attached service");
    if (!service_->alive())
        service_->start();
}

void
Node::killService()
{
    if (!service_ || !service_->alive() || state_ == State::Down)
        return;
    service_->terminate(/*silent=*/false);
    scheduleRestart();
}

void
Node::scheduleRestart()
{
    // The daemon notices the death and restarts the process.
    if (restartPending_)
        return;
    restartPending_ = true;
    sim_.scheduleIn(cfg_.serviceRestartDelay, [this] {
        restartPending_ = false;
        if (state_ == State::Up && service_ && !service_->alive())
            service_->start();
    });
}

void
Node::stopService()
{
    if (service_ && service_->alive() && state_ != State::Down)
        service_->sigStop();
}

void
Node::contService()
{
    if (service_ && service_->alive() && state_ != State::Down)
        service_->sigCont();
}

void
Node::operatorRestartService()
{
    if (state_ != State::Up || !service_)
        return;
    if (service_->alive())
        service_->terminate(/*silent=*/false);
    service_->start();
}

} // namespace performa::osim
