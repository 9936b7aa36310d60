/**
 * @file
 * The Mendosus-style fault injector: applies FaultSpecs to a live
 * simulated cluster in real (simulated) time, through the same entry
 * points the real testbed used — network component state, node
 * power/freeze, the kernel allocator trap, the cLAN driver's pin
 * threshold, daemon-delivered signals, and the faulty parameters the
 * PRESS server's next send call carries (bad parameters).
 */

#ifndef PERFORMA_FAULTS_INJECTOR_HH
#define PERFORMA_FAULTS_INJECTOR_HH

#include "faults/fault.hh"
#include "press/cluster.hh"
#include "sim/simulation.hh"

namespace performa::fault {

/**
 * Injects faults into a Cluster. Each injection and recovery appends
 * an Inject or Recover marker to the cluster's marker log, the
 * mechanized Mendosus log.
 */
class Injector
{
  public:
    Injector(sim::Simulation &s, press::Cluster &cluster)
        : sim_(s), cluster_(cluster)
    {}

    /**
     * Schedule injectNow(@p spec) for spec.injectAt (tests; the
     * experiment and the validation run inject at their own clock).
     */
    void schedule(const FaultSpec &spec);

    /** Apply @p spec right now; a transient fault removes itself
     *  after spec.duration. What Experiment and validateModel call. */
    void injectNow(const FaultSpec &spec);

  private:
    void recover(const FaultSpec &spec);
    /** Log @p kind ("inject <fault>" / "recover <fault>") for @p spec. */
    void emit(press::MarkerKind kind, const FaultSpec &spec);

    sim::Simulation &sim_;
    press::Cluster &cluster_;
};

} // namespace performa::fault

#endif // PERFORMA_FAULTS_INJECTOR_HH
