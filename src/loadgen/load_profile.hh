/**
 * @file
 * Load profiles: named workload shapes layered on top of the paper's
 * flat open-loop Poisson/Zipf client population.
 *
 * A profile can (a) switch the generator to session-based closed-loop
 * clients with think times and connection reuse, (b) modulate the
 * offered rate over time (diurnal curves, flash-crowd bursts), and
 * (c) replace the uniform file size with a heavy-tailed (Pareto)
 * distribution. Everything a profile randomizes draws from a split
 * RNG stream (sim::Simulation::splitRng), so enabling a profile never
 * perturbs the draw sequence of the default workload — the behaviour
 * database's byte-identity contract survives the new subsystem.
 */

#ifndef PERFORMA_LOADGEN_LOAD_PROFILE_HH
#define PERFORMA_LOADGEN_LOAD_PROFILE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::loadgen {

/** One traffic burst: ramp to peak, hold, ramp back down. */
struct FlashCrowd
{
    sim::Tick at = 0;   ///< burst start
    sim::Tick ramp = 0; ///< linear ramp up (and down) duration
    sim::Tick hold = 0; ///< time at peak
    double peak = 1.0;  ///< rate multiplier at the top

    bool enabled() const { return peak > 1.0 && ramp + hold > 0; }
};

/** Sinusoidal day/night load curve. */
struct Diurnal
{
    sim::Tick period = 0;
    double amplitude = 0.0; ///< rate swings 1 +/- amplitude

    bool enabled() const { return period > 0 && amplitude > 0.0; }
};

/** Heavy-tailed per-file sizes (Pareto), replacing the flat 8 KB. */
struct ParetoSizes
{
    bool enabled = false;
    double alpha = 1.3; ///< tail index; smaller = heavier
    std::uint64_t meanBytes = 8192;
    std::uint64_t maxBytes = 1u << 20; ///< clip outliers
};

/** A named workload shape. Default-constructed == the paper's load. */
struct LoadProfileSpec
{
    std::string name = "steady";

    /** Closed-loop session clients instead of the open-loop farm. */
    bool sessions = false;
    /** Session population; 0 = derive from the configured open-loop
     *  rate so the offered load stays comparable. */
    std::size_t sessionCount = 0;
    sim::Tick meanThink = sim::msec(250);
    double meanRequestsPerSession = 25.0;

    /** Base multiplier on the configured open-loop rate. */
    double rateScale = 1.0;

    FlashCrowd flash;
    Diurnal diurnal;
    ParetoSizes pareto;

    /** One-second slices to pre-reserve in the recording (zero-alloc
     *  steady state needs the whole run reserved up front). */
    std::size_t reserveSlices = 0;

    /** True when the profile changes nothing about the workload. */
    bool
    isDefault() const
    {
        return !sessions && rateScale == 1.0 && !flash.enabled() &&
               !diurnal.enabled() && !pareto.enabled;
    }
};

/**
 * The built-in profile registry: "steady", "sessions", "pareto",
 * "diurnal", "flashcrowd". Returns nullopt for unknown names.
 */
std::optional<LoadProfileSpec> profileByName(const std::string &name);

/** Offered-rate multiplier of @p spec at simulated time @p t. */
double rateMultiplierAt(const LoadProfileSpec &spec, sim::Tick t);

/**
 * Deterministic per-file Pareto size (a property of the synthetic
 * file set, independent of the run seed). Mean ~= spec.meanBytes for
 * alpha well above 1; clipping at maxBytes pulls it slightly below.
 */
std::uint64_t paretoFileBytes(const ParetoSizes &spec, sim::FileId f);

/** Bind @p spec into a size function for PressConfig::fileSizeFn. */
sim::SmallFn<std::uint64_t(sim::FileId)>
makeFileSizeFn(const ParetoSizes &spec);

} // namespace performa::loadgen

#endif // PERFORMA_LOADGEN_LOAD_PROFILE_HH
