/**
 * @file
 * Model validation by long-run simulation. The phase-2 model assumes
 * uncorrelated, exponentially arriving faults with one fault in
 * effect at a time (Section 2.2). Here we check it empirically: draw
 * fault arrivals from compressed MTTFs, run a long simulation with an
 * operator watchdog, measure availability directly, and compare with
 * the model's prediction built from single-fault behaviours measured
 * at the same fault durations. The long run is a fault-free
 * exp::Experiment, the same world phase 1 measures with: the storm
 * and the watchdog are scheduled on it after its warm-up and injected
 * through its injector. Agreement should be good while the
 * total degraded weight (sum of W_c) is small and degrade gracefully
 * as faults start to overlap.
 */

#ifndef PERFORMA_EXP_LONG_RUN_HH
#define PERFORMA_EXP_LONG_RUN_HH

#include <vector>

#include "exp/experiment.hh"
#include "faults/fault.hh"
#include "press/config.hh"

namespace performa::exp {

/** One fault class in the validation load. */
struct ValidationFault
{
    fault::FaultKind kind = fault::FaultKind::AppCrash;
    /** Per-node mean time to failure (compressed for simulation). */
    double mttfPerNodeSec = 600.0;
    /** Fault duration (the class's compressed MTTR). */
    sim::Tick duration = sim::sec(30);
};

/** Configuration of one validation run. */
struct LongRunConfig
{
    press::Version version = press::Version::TcpPressHb;
    std::vector<ValidationFault> faults;
    sim::Tick duration = sim::minutes(30);
    /** Operator watchdog: reset the cluster after this long
     *  continuously splintered. */
    sim::Tick operatorResponse = sim::sec(60);
    std::uint64_t seed = 99;
    bool robustMembership = false;
};

/** A sensible default load for validation sweeps. */
std::vector<ValidationFault> defaultValidationLoad(double scale = 1.0);

/** What a validation run produces. */
struct LongRunResult
{
    double normalTput = 0.0;
    double measuredAvailability = 0.0;  ///< long-run AT / Tn
    double predictedAvailability = 0.0; ///< phase-2 model
    double sumDegradedWeight = 0.0;     ///< model's sum of W_c
    std::uint64_t faultsInjected = 0;
    std::uint64_t operatorResets = 0;

    double
    absoluteError() const
    {
        double d = measuredAvailability - predictedAvailability;
        return d < 0 ? -d : d;
    }
};

/**
 * Measure single-fault behaviours for the load, build the model,
 * then run the fault storm and compare.
 */
LongRunResult validateModel(const LongRunConfig &cfg);

} // namespace performa::exp

#endif // PERFORMA_EXP_LONG_RUN_HH
