/**
 * @file
 * One cluster node: CPU, kernel memory, pinnable-page budget, network
 * attachment, power/freeze lifecycle, and the Mendosus-style monitor
 * daemon that supervises the server process.
 *
 * A node's id is its address: it owns port `id` on the intra-cluster
 * network and port `id` on the client network, as every PRESS process
 * knows the static cluster from one configuration file. Nodes are
 * therefore built in id order, before any other port is added.
 */

#ifndef PERFORMA_OS_NODE_HH
#define PERFORMA_OS_NODE_HH

#include <cstdint>
#include <memory>

#include "net/network.hh"
#include "os/cpu.hh"
#include "os/memory.hh"
#include "os/service.hh"
#include "sim/simulation.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::osim {

/** Sizing and timing knobs for a node. */
struct NodeConfig
{
    /** Kernel memory pool backing skbuf allocations. */
    std::uint64_t kernelMemBytes = 64ull << 20;
    /** Pinnable-page budget (most of the 206 MB of physical memory). */
    std::uint64_t pinLimitBytes = 180ull << 20;
    /** Delay from node power-up to the daemon launching the service. */
    sim::Tick serviceStartDelay = sim::sec(5);
    /** Daemon delay before restarting a dead service process. */
    sim::Tick serviceRestartDelay = sim::sec(10);
};

/**
 * The mutable state of a Node beside its CPU: lifecycle plus the
 * kernel-memory and pinned-page managers, which are plain values and
 * copy whole with it.
 */
struct NodeState
{
    enum class State
    {
        Up,
        Down,   ///< crashed; nothing runs, ports are dark
        Frozen, ///< OS hung; NIC hardware alive, nothing executes
    };

    explicit NodeState(const NodeConfig &cfg)
        : kernelMem_(cfg.kernelMemBytes), pins_(cfg.pinLimitBytes)
    {}

    State state_ = State::Up;
    std::uint64_t incarnation_ = 1;
    bool restartPending_ = false;
    KernelMemory kernelMem_;
    PinManager pins_;
};

/**
 * A cluster node. The node owns the hardware/OS state; the protocol
 * stacks and the PRESS server attach to it.
 */
class Node : private NodeState
{
  public:
    using State = NodeState::State;

    /**
     * Attach node @p id to both networks: it adds its own port on
     * each, which must be port @p id (PANICs otherwise), so nodes
     * 0..id-1 must already be built and no other port added yet.
     */
    Node(sim::Simulation &s, sim::NodeId id, net::Network &intra_net,
         net::Network &client_net, NodeConfig cfg = {});

    sim::NodeId id() const { return id_; }
    State state() const { return state_; }
    bool up() const { return state_ == State::Up; }
    bool frozen() const { return state_ == State::Frozen; }

    /**
     * Reboot count; a rebooted node is a different "incarnation", which
     * is how TCP peers eventually get RSTs for stale connections.
     */
    std::uint64_t incarnation() const { return incarnation_; }

    Cpu &cpu() { return cpu_; }
    KernelMemory &kernelMem() { return kernelMem_; }
    PinManager &pins() { return pins_; }

    net::Network &intraNet() { return intraNet_; }
    net::Network &clientNet() { return clientNet_; }

    sim::Simulation &simulation() { return sim_; }
    const NodeConfig &config() const { return cfg_; }

    /// @name Power and freeze lifecycle (driven by the fault injector)
    /// @{

    /** Hard-reboot fault: power off now, back up after @p downtime. */
    void crash(sim::Tick downtime);

    /** Node-freeze fault: the OS hangs for @p duration. */
    void freeze(sim::Tick duration);

    /** @} */

    /// @name Monitor daemon
    /// @{

    /** Register the supervised service (started on the next boot). */
    void attachService(Service *svc);

    /** Launch the service immediately (initial cluster bring-up). */
    void startServiceNow();

    /** SIGKILL the service; the daemon restarts it (app crash fault). */
    void killService();

    /** SIGSTOP / SIGCONT the service (app hang fault). */
    void stopService();
    void contService();

    /**
     * Called by the service when it terminated itself on a fatal comm
     * error; the daemon restarts it as it does a killed one.
     */
    void serviceFailedFast() { scheduleRestart(); }

    /** Operator intervention: restart the service with a clean state. */
    void operatorRestartService();

    /** @} */

    /**
     * Run @p fn when the node crashes, after the service is killed
     * (replaces any earlier hook). The node's comm endpoint installs
     * it, to vanish with the kernel state.
     */
    void onCrash(sim::SmallFn<void()> fn) { crashFn_ = std::move(fn); }

    /**
     * Snapshot state: lifecycle, the memory managers and the CPU.
     * The attached service and the crash hook are wiring, saved
     * by their own components (press::Server) or not mutable at all.
     */
    struct Saved : NodeState
    {
        Cpu::Saved cpu;
    };

    Saved save() const { return {NodeState(*this), cpu_.save()}; }

    void
    restore(const Saved &s)
    {
        NodeState::operator=(s);
        cpu_.restore(s.cpu);
    }

  private:
    void setPorts(bool up);
    void reboot();
    void scheduleRestart();

    sim::Simulation &sim_;
    sim::NodeId id_;
    net::Network &intraNet_;
    net::Network &clientNet_;
    NodeConfig cfg_;

    Cpu cpu_;
    Service *service_ = nullptr;
    sim::SmallFn<void()> crashFn_;
};

} // namespace performa::osim

#endif // PERFORMA_OS_NODE_HH
