/**
 * @file
 * Phase 2 of the methodology: combine per-fault 7-stage behaviours
 * with a fault load (MTTF/MTTR per component class) into average
 * throughput AT, average availability AA, and the performability
 * metric
 *
 *     P = Tn * log(A_I) / log(AA)
 *
 * where A_I is an ideal availability (0.99999). P scales linearly
 * with performance and, for small unavailability, inversely with
 * unavailability.
 *
 * The combination assumes uncorrelated faults with exponentially
 * distributed arrivals, queued so a single fault is in effect at a
 * time:
 *
 *     AT = (1 - sum_c W_c) * Tn
 *          + sum_c sum_{s=A..G} (D_c^s / MTTF_c) * T_c^s
 *     AA = AT / Tn,     W_c = (sum_s D_c^s) / MTTF_c
 */

#ifndef PERFORMA_CORE_PERFORMABILITY_HH
#define PERFORMA_CORE_PERFORMABILITY_HH

#include <string>
#include <vector>

#include "core/fault_load.hh"
#include "core/seven_stage.hh"

namespace performa::model {

/** Evaluator-supplied environmental parameters. */
struct EnvParams
{
    /** How long a splintered cluster waits for the operator (D_E). */
    double operatorResponseSec = 600.0;
    /** How long the reset itself takes at zero throughput (D_F). */
    double resetDurationSec = 60.0;
    /** Warm-up transient after the reset (D_G). */
    double warmupSec = 20.0;
    /** Ideal availability A_I in the performability metric. */
    double idealAvailability = 0.99999;
};

/**
 * Resolve the full stage table for one fault class: keep measured
 * durations for A/B/D, derive C from the component's MTTR, and
 * attach operator stages E/F/G when the service cannot heal itself.
 */
ResolvedStages resolveStages(const MeasuredBehavior &mb, double mttr_sec,
                             const EnvParams &env);

/** One fault class's share of the overall unavailability. */
struct FaultContribution
{
    std::string name;
    fault::FaultKind kind;
    double unavailability = 0.0; ///< contribution to (1 - AA)
    double degradedWeight = 0.0; ///< W_c (fraction of time in stages)
    /** Contribution to (1 - AA_slo); zero without latency data. */
    double sloUnavailability = 0.0;
};

/** Model output. */
struct PerfResult
{
    double normalTput = 0.0;      ///< Tn
    double avgTput = 0.0;         ///< AT
    double availability = 0.0;    ///< AA
    double unavailability = 0.0;  ///< 1 - AA
    double performability = 0.0;  ///< P
    std::vector<FaultContribution> breakdown;

    /**
     * The same metrics defined over SLO-goodput (requests served
     * within the latency SLO) instead of raw throughput. Valid only
     * when every registered behaviour carried latency data; the
     * throughput metrics above are always valid.
     */
    bool sloValid = false;
    double sloNormalTput = 0.0;     ///< Tn_slo = Tn * fracWithinNormal
    double sloAvgTput = 0.0;        ///< AT_slo
    double sloAvailability = 0.0;   ///< AA_slo
    double sloUnavailability = 0.0; ///< 1 - AA_slo
    double sloPerformability = 0.0; ///< P_slo
};

/** The performability metric by itself. */
double performabilityMetric(double tn, double aa, double ideal);

/**
 * The phase-2 model: add (fault class, measured behaviour) pairs,
 * then evaluate.
 */
class PerformabilityModel
{
  public:
    explicit PerformabilityModel(double normal_tput)
        : normalTput_(normal_tput)
    {}

    /** Register one fault class with its measured behaviour. */
    void
    addFault(const FaultClass &fc, const MeasuredBehavior &mb)
    {
        entries_.push_back({fc, mb});
    }

    /** Evaluate AT, AA, P and the per-fault breakdown. */
    PerfResult evaluate(const EnvParams &env = {}) const;

  private:
    struct Entry
    {
        FaultClass fc;
        MeasuredBehavior mb;
    };

    double normalTput_;
    std::vector<Entry> entries_;
};

} // namespace performa::model

#endif // PERFORMA_CORE_PERFORMABILITY_HH
