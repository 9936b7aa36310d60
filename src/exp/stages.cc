#include "exp/stages.hh"

#include <algorithm>
#include <cmath>
#include <utility>

namespace performa::exp {

using model::MeasuredBehavior;
using model::StageA;
using model::StageB;
using model::StageC;
using model::StageD;
using model::StageE;
using model::StageF;
using model::StageG;

namespace {

constexpr sim::Tick reconfigTransient = sim::sec(10); ///< stage-B window
constexpr sim::Tick recoveryTransient = sim::sec(15); ///< stage-D window
constexpr double healedThreshold = 0.93; ///< stage E >= this share of Tn

/**
 * Mean served rate over [from, to), or @p fallback when the window is
 * too short (< 1 s) to carry a meaningful sample.
 */
double
rateOr(const ExperimentResult &res, sim::Tick from, sim::Tick to,
       double fallback)
{
    if (to < from + sim::sec(1))
        return fallback;
    return res.served.meanRate(from, to);
}

/** quantile() with empty-histogram NaN mapped to 0 (for reports). */
double
quantileOr0(const sim::LatencyHistogram &h, double q)
{
    double v = h.quantile(q);
    return std::isnan(v) ? 0.0 : v;
}

} // namespace

model::MeasuredBehavior
extractBehavior(const ExperimentResult &res, const fault::FaultSpec &spec,
                const ExtractionParams &p)
{
    MeasuredBehavior mb;
    mb.normalTput = res.normalThroughput;

    const sim::Tick inject = res.injectAt;
    const sim::Tick end = res.runLength;

    // Wall-clock window each stage's throughput level is read from;
    // the latency summary slices the histogram timeline at the same
    // boundaries. {0, 0} = no direct window (level was remapped).
    std::array<std::pair<sim::Tick, sim::Tick>, model::numStages>
        win{};

    // Detection: the first exclusion or fail-fast after injection.
    auto excl = res.markers.firstAfter(press::MarkerKind::Exclude, inject);
    auto ff = res.markers.firstAfter(press::MarkerKind::FailFast, inject);
    sim::Tick t_detect = sim::maxTick;
    if (excl)
        t_detect = std::min(t_detect, excl->t);
    if (ff)
        t_detect = std::min(t_detect, ff->t);
    mb.detected = t_detect != sim::maxTick;

    // Component repair: end of the transient window for faults with a
    // duration; the process restart for application faults.
    sim::Tick t_repair;
    if (fault::hasDuration(spec.kind)) {
        t_repair = inject + spec.duration;
    } else {
        auto started = res.markers.last(press::MarkerKind::Started);
        t_repair = (started && started->t > inject) ? started->t
                                                    : inject;
    }
    t_repair = std::min(t_repair, end);

    if (mb.detected) {
        sim::Tick tA1 = std::min(t_detect, end);
        mb.dur[StageA] = sim::toSeconds(tA1 - inject);
        // Sub-second detection windows carry no meaningful rate
        // sample; the stage contributes ~nothing anyway.
        mb.tput[StageA] = rateOr(res, inject, tA1, mb.normalTput);
        win[StageA] = {inject, tA1};

        sim::Tick tB1 = std::min(tA1 + reconfigTransient, end);
        mb.dur[StageB] = sim::toSeconds(tB1 - tA1);
        mb.tput[StageB] = rateOr(res, tA1, tB1, mb.tput[StageA]);
        win[StageB] = {tA1, tB1};

        // Stable degraded regime C: between the reconfiguration
        // transient and the component repair.
        mb.tput[StageC] =
            rateOr(res, tB1, t_repair, mb.tput[StageB]);
        mb.dur[StageC] = sim::toSeconds(
            t_repair > tB1 ? t_repair - tB1 : 0);
        win[StageC] = {tB1, t_repair};
    } else {
        // Undetected: one degraded regime from injection to repair.
        mb.dur[StageA] = sim::toSeconds(t_repair - inject);
        mb.tput[StageA] = rateOr(res, inject, t_repair, mb.normalTput);
        mb.tput[StageB] = mb.tput[StageA];
        mb.tput[StageC] = mb.tput[StageA];
        win[StageA] = {inject, t_repair};
        win[StageB] = win[StageA];
        win[StageC] = win[StageA];
    }

    // Recovery transient D right after repair, ending at the
    // stabilization point: the first moment the 5-second mean reaches
    // 93% of the final stable level. This absorbs effects like TCP's
    // retransmission backoff delaying the resume well past the
    // component repair.
    sim::Tick tE1 = end > sim::sec(2) ? end - sim::sec(2) : end;
    sim::Tick tail0 = tE1 > sim::sec(20) ? tE1 - sim::sec(20) : 0;
    double final_level = res.served.meanRate(tail0, tE1);

    sim::Tick stab = tE1;
    for (sim::Tick t = t_repair; t + sim::sec(5) <= tE1;
         t += sim::sec(1)) {
        if (res.served.meanRate(t, t + sim::sec(5)) >=
            healedThreshold * final_level) {
            stab = t;
            break;
        }
    }
    sim::Tick tD1 = std::max(stab, std::min(t_repair +
                                            recoveryTransient, tE1));
    mb.dur[StageD] = sim::toSeconds(tD1 > t_repair ? tD1 - t_repair : 0);
    mb.tput[StageD] = rateOr(res, t_repair, tD1, mb.normalTput);
    win[StageD] = {t_repair, tD1};

    // Stable post-recovery regime E.
    sim::Tick tE0 = tD1;
    mb.tput[StageE] = rateOr(res, tE0, tE1, mb.tput[StageD]);
    win[StageE] = {tE0, tE1};

    mb.healed = !res.endSplintered &&
                mb.tput[StageE] >= healedThreshold * mb.normalTput;
    if (mb.healed)
        mb.tput[StageE] = mb.normalTput;

    mb.tput[StageF] = 0.0;
    mb.tput[StageG] = mb.tput[StageB];

    if (p.slo && p.slo->valid()) {
        const sim::StageLatencyTimeline &tl = res.latency;
        const std::uint64_t th = p.slo->thresholdUs;
        constexpr auto total = sim::LatencyStage::Total;

        model::LatencySummary &ls = mb.latency;
        ls.present = true;
        ls.sloQuantile = p.slo->quantile;
        ls.sloThresholdUs = static_cast<double>(th);

        // Normal operation: the same pre-fault window the normal
        // throughput is read from.
        sim::Tick n0 = inject > sim::sec(20) ? inject - sim::sec(20)
                                             : sim::Tick(0);
        sim::LatencyHistogram normal = tl.window(total, n0, inject);
        ls.fracWithinNormal = normal.fractionAtOrBelow(th);
        ls.p50Us = quantileOr0(normal, 0.50);
        ls.p90Us = quantileOr0(normal, 0.90);
        ls.p99Us = quantileOr0(normal, 0.99);
        ls.p999Us = quantileOr0(normal, 0.999);

        for (int s = 0; s < model::numStages; ++s) {
            auto [from, to] = win[s];
            if (to <= from)
                continue; // no window: keep the all-within default
            sim::LatencyHistogram h = tl.window(total, from, to);
            ls.fracWithin[s] = h.fractionAtOrBelow(th);
            ls.stageP99Us[s] = quantileOr0(h, 0.99);
        }
        // Stage G's level was taken from B; mirror its latency view.
        ls.fracWithin[StageG] = ls.fracWithin[StageB];
        ls.stageP99Us[StageG] = ls.stageP99Us[StageB];
    }
    return mb;
}

} // namespace performa::exp
