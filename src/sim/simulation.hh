/**
 * @file
 * The Simulation context: one event queue plus one random source.
 * Everything that happens in a run hangs off this object, which keeps
 * runs deterministic and lets tests construct isolated worlds.
 */

#ifndef PERFORMA_SIM_SIMULATION_HH
#define PERFORMA_SIM_SIMULATION_HH

#include <cstdint>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace performa::sim {

/** The mutable state of a Simulation beside its event queue (see
 *  sim/snapshot.hh: a component's snapshot is a copy of its state). */
struct SimulationState
{
    Rng rng_;
    std::uint64_t nextId_ = 1;
};

/**
 * Owns the event queue and RNG for one simulated world.
 *
 * Components take a Simulation& at construction and use it to schedule
 * events and draw randomness. The Simulation outlives all components;
 * this is load-bearing for EventHandle, which indexes into the event
 * queue's record slab and must not outlive the queue.
 */
class Simulation : private SimulationState
{
  public:
    explicit Simulation(std::uint64_t seed = 1)
        : SimulationState{Rng(seed)}, seed_(seed)
    {}

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    EventQueue &events() { return events_; }
    Rng &rng() { return rng_; }
    PayloadPool &pool() { return pool_; }

    /** The seed this world was constructed with. */
    std::uint64_t seed() const { return seed_; }

    /**
     * A fresh Rng on an independent stream derived from this world's
     * seed and @p salt. Components with their own randomness (the
     * load-profile generators) draw from a split stream instead of
     * the shared rng(), so enabling them cannot perturb the draw
     * sequence — and therefore the results — of everything else.
     */
    Rng
    splitRng(std::uint64_t salt) const
    {
        return Rng(deriveSeed(seed_, {salt}));
    }

    /** Allocate a pooled message payload (see sim/pool.hh). */
    template <typename T, typename... Args>
    Rc<T>
    makePayload(Args &&...args)
    {
        return pool_.make<T>(std::forward<Args>(args)...);
    }

    /** Current simulated time. */
    Tick now() const { return events_.now(); }

    /**
     * Allocate a run-unique identifier (TCP connections, VIs, ...).
     * Run-scoped rather than process-global so concurrent
     * Simulations (campaign workers) stay race-free and each run's
     * identifiers are deterministic.
     */
    std::uint64_t allocId() { return nextId_++; }

    /** Convenience forwarders; @p fn is built in place in its event
     *  record (see EventQueue::schedule). */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&fn)
    {
        return events_.schedule(when, std::forward<F>(fn));
    }

    template <typename F>
    EventHandle
    scheduleIn(Tick delay, F &&fn)
    {
        return events_.scheduleIn(delay, std::forward<F>(fn));
    }

    void runUntil(Tick limit) { events_.runUntil(limit); }

    /**
     * Snapshot state: RNG stream, id counter and the full event queue
     * (handlers copied). The payload pool itself is NOT part of the
     * saved state — pooled blocks live at stable addresses until the
     * pool is destroyed, and the Rc handles inside copied handlers
     * keep every block the snapshot needs referenced, so restoring is
     * purely a matter of refcounts settling. Pool counters
     * (freshAllocs/poolHits) therefore drift across forks; they are
     * diagnostics, not behaviour.
     */
    struct Saved : SimulationState
    {
        EventQueue::Saved events;
    };

    Saved save() const { return {SimulationState(*this), events_.save()}; }

    void
    restore(const Saved &s)
    {
        SimulationState::operator=(s);
        events_.restore(s.events);
    }

  private:
    // The pool is declared before the event queue so it is destroyed
    // after it: pending events may hold Rc payload handles (in-flight
    // frames), and destroying them releases blocks back to the pool.
    PayloadPool pool_;
    EventQueue events_;
    std::uint64_t seed_ = 1;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_SIMULATION_HH
