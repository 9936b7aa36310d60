#include "loadgen/load_profile.hh"

#include <cmath>

#include "sim/random.hh"

namespace performa::loadgen {

std::optional<LoadProfileSpec>
profileByName(const std::string &name)
{
    LoadProfileSpec spec;
    spec.name = name;
    if (name == "steady" || name.empty()) {
        spec.name = "steady";
        return spec;
    }
    if (name == "sessions") {
        spec.sessions = true;
        return spec;
    }
    if (name == "pareto") {
        spec.pareto.enabled = true;
        return spec;
    }
    if (name == "diurnal") {
        // A compressed day: the run sweeps through trough and peak.
        spec.rateScale = 0.85;
        spec.diurnal.period = sim::sec(120);
        spec.diurnal.amplitude = 0.5;
        return spec;
    }
    if (name == "flashcrowd") {
        // Sub-saturated base load with a burst that overlaps the
        // fault injection at 60 s: delivered throughput can keep up
        // while queueing pushes the p99 through an SLO.
        spec.rateScale = 0.6;
        spec.flash.at = sim::sec(50);
        spec.flash.ramp = sim::sec(10);
        spec.flash.hold = sim::sec(90);
        spec.flash.peak = 2.5;
        return spec;
    }
    return std::nullopt;
}

double
rateMultiplierAt(const LoadProfileSpec &spec, sim::Tick t)
{
    double m = spec.rateScale;
    if (spec.diurnal.enabled()) {
        double phase = 2.0 * M_PI * static_cast<double>(t) /
                       static_cast<double>(spec.diurnal.period);
        m *= 1.0 + spec.diurnal.amplitude * std::sin(phase);
    }
    if (spec.flash.enabled() && t >= spec.flash.at) {
        sim::Tick rel = t - spec.flash.at;
        double peak = spec.flash.peak;
        if (rel < spec.flash.ramp) {
            double f = static_cast<double>(rel) /
                       static_cast<double>(spec.flash.ramp);
            m *= 1.0 + (peak - 1.0) * f;
        } else if (rel < spec.flash.ramp + spec.flash.hold) {
            m *= peak;
        } else if (rel < 2 * spec.flash.ramp + spec.flash.hold) {
            double f = static_cast<double>(
                           rel - spec.flash.ramp - spec.flash.hold) /
                       static_cast<double>(spec.flash.ramp);
            m *= peak - (peak - 1.0) * f;
        }
    }
    return m > 0.0 ? m : 0.0;
}

std::uint64_t
paretoFileBytes(const ParetoSizes &spec, sim::FileId f)
{
    // Scale parameter matching the requested mean for an untruncated
    // Pareto: E[X] = xm * alpha / (alpha - 1).
    double xm = static_cast<double>(spec.meanBytes) *
                (spec.alpha - 1.0) / spec.alpha;
    // Fixed salt: sizes are a property of the file set, not the run.
    std::uint64_t h = sim::mix64(f ^ 0x9e3779b97f4a7c15ull);
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    double size = xm / std::pow(1.0 - u, 1.0 / spec.alpha);
    if (size < 1.0)
        size = 1.0;
    double cap = static_cast<double>(spec.maxBytes);
    if (size > cap)
        size = cap;
    return static_cast<std::uint64_t>(size);
}

sim::SmallFn<std::uint64_t(sim::FileId)>
makeFileSizeFn(const ParetoSizes &spec)
{
    if (!spec.enabled)
        return {};
    ParetoSizes s = spec;
    return [s](sim::FileId f) { return paretoFileBytes(s, f); };
}

} // namespace performa::loadgen
