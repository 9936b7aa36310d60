/**
 * @file
 * Mechanized phase-1 analysis: map an experiment's throughput series
 * and markers onto the 7-stage model (what the paper's evaluators did
 * by reading graphs and logs).
 */

#ifndef PERFORMA_EXP_STAGES_HH
#define PERFORMA_EXP_STAGES_HH

#include <optional>

#include "core/seven_stage.hh"
#include "exp/experiment.hh"
#include "faults/fault.hh"

namespace performa::exp {

/** What to read off the series beside the stage throughputs. */
struct ExtractionParams
{
    /**
     * When set, fill MeasuredBehavior::latency by slicing the
     * experiment's latency timeline at the same stage boundaries the
     * throughput levels are read from.
     */
    std::optional<model::LatencySlo> slo;
};

/**
 * Extract the measured behaviour of one (version, fault) experiment.
 * @p spec must be the fault that was injected.
 */
model::MeasuredBehavior extractBehavior(const ExperimentResult &res,
                                        const fault::FaultSpec &spec,
                                        const ExtractionParams &p = {});

} // namespace performa::exp

#endif // PERFORMA_EXP_STAGES_HH
