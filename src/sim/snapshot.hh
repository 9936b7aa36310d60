/**
 * @file
 * Warm-state snapshot/fork: capture every registered component's
 * mutable state into an immutable Snapshot, then fork any number of
 * runs from it by restoring that state back into the same object
 * graph (DESIGN.md, "Warm-state snapshot/fork").
 *
 * The design is restore-in-place: component objects stay at their
 * original addresses for the lifetime of the experiment, and only
 * their mutable state is copied out and back in. Event handlers and
 * callbacks capture `this` pointers freely — those pointers remain
 * valid across a fork because the objects they refer to are never
 * moved, so the handler-rebinding contract is the identity map.
 *
 * A snapshot is a copy of state, not a field list. Each component
 * keeps its mutable fields in one state struct that it derives from
 * privately (`class Cpu : private CpuState`); its Saved is that struct
 * (plus, by composition, the Saved of each nested component that holds
 * references and so cannot be copied whole), save() copies it and
 * restore() assigns it back in place. A new field is snapshotted
 * because of where it is declared; wiring (references, callbacks,
 * configuration) stays in the component itself. Rings and SmallFns
 * copy as values; assigning a ring refills it in place, so a fork
 * reuses the capacity the warmed world grew. Two snapshots stay
 * hand-written: the event queue's, restored slot for slot into chunks
 * that never move, and the page cache's, saved as its MRU list
 * because its id-indexed arrays are large.
 */

#ifndef PERFORMA_SIM_SNAPSHOT_HH
#define PERFORMA_SIM_SNAPSHOT_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "sim/small_fn.hh"

namespace performa::sim {

class SnapshotRegistry;

/**
 * An immutable capture of one registry's component states, in
 * registration order. Opaque outside the registry that produced it;
 * holding one keeps the captured state (including any refcounted
 * payload handles inside copied handlers/queues) alive, so a Snapshot
 * must not outlive the Simulation whose payload pool backs it.
 */
class Snapshot
{
  public:
    Snapshot() = default;

    /** @return true if no state has been captured. */
    bool empty() const { return states_.empty(); }

    /** Number of captured component states. */
    std::size_t size() const { return states_.size(); }

  private:
    friend class SnapshotRegistry;

    std::vector<std::shared_ptr<const void>> states_;
};

/**
 * The ordered list of save/restore hooks for one experiment's
 * component graph. Components are attach()ed once, bottom-up
 * (Simulation core first, then networks, nodes, protocol endpoints,
 * servers, load generators); capture() and forkFrom() walk the hooks
 * in that same order, so a component may rely on everything attached
 * before it already being restored.
 */
class SnapshotRegistry
{
  public:
    SnapshotRegistry() = default;
    SnapshotRegistry(const SnapshotRegistry &) = delete;
    SnapshotRegistry &operator=(const SnapshotRegistry &) = delete;

    /**
     * Register a component exposing the Saved/save()/restore() trio:
     * `C::Saved C::save() const` and `void C::restore(const C::Saved&)`.
     * The component must outlive the registry's last forkFrom().
     */
    template <typename C>
    void
    attach(C &c)
    {
        hooks_.push_back(Hook{
            [&c]() -> std::shared_ptr<const void> {
                return std::make_shared<const typename C::Saved>(c.save());
            },
            [&c](const void *s) {
                c.restore(*static_cast<const typename C::Saved *>(s));
            }});
    }

    /** Number of registered hooks (a Snapshot only fits a registry
     *  with the same registration sequence). */
    std::size_t size() const { return hooks_.size(); }

    /** Capture every component's state, in registration order. */
    Snapshot
    capture() const
    {
        Snapshot snap;
        snap.states_.reserve(hooks_.size());
        for (const Hook &h : hooks_)
            snap.states_.push_back(h.save());
        return snap;
    }

    /**
     * Restore every component to @p snap, in registration order. The
     * snapshot must have been captured by a registry with the same
     * components attached in the same order.
     */
    void
    forkFrom(const Snapshot &snap) const
    {
        if (snap.states_.size() != hooks_.size())
            PANIC("snapshot/registry mismatch: ", snap.states_.size(),
                  " captured states vs ", hooks_.size(), " hooks");
        for (std::size_t i = 0; i < hooks_.size(); ++i)
            hooks_[i].restore(snap.states_[i].get());
    }

  private:
    struct Hook
    {
        SmallFn<std::shared_ptr<const void>()> save;
        SmallFn<void(const void *)> restore;
    };

    std::vector<Hook> hooks_;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_SNAPSHOT_HH
