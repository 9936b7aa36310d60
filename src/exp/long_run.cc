#include "exp/long_run.hh"

#include <algorithm>

#include "core/performability.hh"
#include "exp/behavior_db.hh"
#include "exp/stages.hh"
#include "sim/small_fn.hh"

namespace performa::exp {

std::vector<ValidationFault>
defaultValidationLoad(double scale)
{
    // Self-healing faults plus one splinter-inducing class, so the
    // operator stages get exercised too. MTTFs are per node. At
    // scale 1 the total degraded weight stays small (the model's
    // valid regime); larger scales push into fault overlap, where the
    // single-fault-at-a-time assumption visibly breaks.
    return {
        {fault::FaultKind::AppCrash, 7200.0 / scale, sim::sec(12)},
        {fault::FaultKind::AppHang, 7200.0 / scale, sim::sec(30)},
        {fault::FaultKind::KernelMemAlloc, 10800.0 / scale,
         sim::sec(30)},
        {fault::FaultKind::LinkDown, 14400.0 / scale, sim::sec(30)},
    };
}

namespace {

/**
 * Measure the single-fault behaviour of every class in @p faults for
 * @p version at the validation durations (not the canonical Table 3
 * MTTRs). The classes share everything before the injection point, so
 * one world warms up once, as in phase 1, and each class runs on a
 * fork of it.
 */
std::vector<model::MeasuredBehavior>
measureBehaviors(press::Version version,
                 const std::vector<ValidationFault> &faults,
                 bool robust_membership)
{
    ExperimentConfig warm = defaultExperimentConfig(version);
    warm.cluster.press.robustMembership = robust_membership;
    auto runLength = [&warm](const ValidationFault &vf) {
        return warm.injectAt + vf.duration + sim::sec(120);
    };
    warm.duration = 0;
    for (const auto &vf : faults)
        warm.duration = std::max(warm.duration, runLength(vf));
    Experiment e(warm);
    e.warmUp();
    sim::Snapshot snap = e.snapshot();

    std::vector<model::MeasuredBehavior> out;
    for (const auto &vf : faults) {
        fault::FaultSpec spec = *experimentFor(version, vf.kind).fault;
        spec.duration = vf.duration;
        e.forkFrom(snap);
        ExperimentResult res = e.injectAndMeasure(spec, runLength(vf));
        out.push_back(extractBehavior(res, spec));
    }
    return out;
}

/** Model MTTR of a validation fault (seconds). */
double
mttrOf(const ValidationFault &vf)
{
    if (fault::hasDuration(vf.kind))
        return sim::toSeconds(vf.duration);
    // App crash: repair = daemon restart (plus a beat to rejoin).
    return 12.0;
}

} // namespace

LongRunResult
validateModel(const LongRunConfig &cfg)
{
    LongRunResult out;

    // ---- Phase 1 + 2: per-fault behaviours and the prediction. ----
    std::vector<model::MeasuredBehavior> behaviors =
        measureBehaviors(cfg.version, cfg.faults, cfg.robustMembership);

    double tn = behaviors.front().normalTput;
    out.normalTput = tn;

    model::EnvParams env;
    env.operatorResponseSec = sim::toSeconds(cfg.operatorResponse);
    env.resetDurationSec = 5.0;
    env.warmupSec = 10.0;

    model::PerformabilityModel pmodel(tn);
    for (std::size_t i = 0; i < cfg.faults.size(); ++i) {
        const auto &vf = cfg.faults[i];
        model::FaultClass fc;
        fc.name = fault::faultName(vf.kind);
        fc.kind = vf.kind;
        fc.count = 4.0;
        fc.mttfSec = vf.mttfPerNodeSec;
        fc.mttrSec = mttrOf(vf);
        pmodel.addFault(fc, behaviors[i]);
    }
    model::PerfResult prediction = pmodel.evaluate(env);
    out.predictedAvailability = prediction.availability;
    for (const auto &c : prediction.breakdown)
        out.sumDegradedWeight += c.degradedWeight;

    // ---- The long run: a fault storm against the live cluster. ----
    const sim::Tick warmup = sim::sec(20);
    const sim::Tick horizon = cfg.duration;

    // The phase-1 world, with no fault of its own: warmUp() brings it
    // up and opens the client valves at 2 s, where the storm starts.
    ExperimentConfig ecfg = defaultExperimentConfig(cfg.version);
    ecfg.cluster.press.robustMembership = cfg.robustMembership;
    ecfg.seed = cfg.seed;
    ecfg.injectAt = sim::sec(2);
    ecfg.duration = horizon;
    Experiment e(ecfg);
    e.warmUp();
    sim::Simulation &sim = e.sim();
    press::Cluster &cluster = e.cluster();
    fault::Injector &injector = e.injector();

    // Per-class Poisson arrival processes over the 4 nodes.
    std::uint64_t faults = 0;
    sim::SmallFn<void(std::size_t)> arm = [&](std::size_t idx) {
        const ValidationFault &vf = cfg.faults[idx];
        sim::Tick mean = static_cast<sim::Tick>(
            vf.mttfPerNodeSec / 4.0 * 1e6);
        sim::Tick gap = sim.rng().exponential(mean);
        sim.scheduleIn(gap, [&, idx] {
            if (sim.now() >= horizon)
                return;
            fault::FaultSpec spec;
            spec.kind = cfg.faults[idx].kind;
            spec.target = static_cast<sim::NodeId>(
                sim.rng().uniformInt(0, 3));
            spec.injectAt = sim.now();
            spec.duration = cfg.faults[idx].duration;
            injector.injectNow(spec);
            ++faults;
            arm(idx);
        });
    };
    for (std::size_t i = 0; i < cfg.faults.size(); ++i)
        arm(i);

    // Operator watchdog: reset a persistently splintered cluster.
    sim::Tick splintered_since = 0;
    std::uint64_t resets = 0;
    sim::SmallFn<void()> watchdog = [&] {
        if (sim.now() < horizon) {
            if (!cluster.splintered()) {
                splintered_since = 0;
            } else {
                if (splintered_since == 0)
                    splintered_since = sim.now();
                else if (sim.now() - splintered_since >=
                         cfg.operatorResponse) {
                    cluster.operatorReset();
                    splintered_since = 0;
                    ++resets;
                }
            }
            sim.scheduleIn(sim::sec(5), [&watchdog] { watchdog(); });
        }
    };
    sim.scheduleIn(sim::sec(5), [&watchdog] { watchdog(); });

    ExperimentResult res = e.injectAndMeasure(std::nullopt);

    out.faultsInjected = faults;
    out.operatorResets = resets;
    double long_run_tput = res.served.meanRate(warmup, horizon);
    out.measuredAvailability = tn > 0 ? long_run_tput / tn : 0.0;
    if (out.measuredAvailability > 1.0)
        out.measuredAvailability = 1.0;
    return out;
}

} // namespace performa::exp
