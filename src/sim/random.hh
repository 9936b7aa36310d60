/**
 * @file
 * Deterministic random-number utilities: a seeded engine plus the
 * distributions the workload generator and fault models need (uniform,
 * exponential inter-arrival times, and a Zipf file-popularity sampler).
 */

#ifndef PERFORMA_SIM_RANDOM_HH
#define PERFORMA_SIM_RANDOM_HH

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <random>
#include <string_view>
#include <vector>

#include "sim/types.hh"

namespace performa::sim {

/**
 * splitmix64 finalizer: a fast, well-distributed 64-bit mixing
 * function (Steele et al., "Fast splittable pseudorandom number
 * generators"). The combining step of all seed derivation — campaign
 * per-job seeds and split RNG streams alike.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Derive one seed from a root seed plus any number of integer
 * identity components (version, fault kind, stream salt, ...).
 * Order-sensitive: (a, b) and (b, a) give different seeds. Never
 * returns 0 so the result is safe for engines that reject a zero
 * seed.
 */
constexpr std::uint64_t
deriveSeed(std::uint64_t root_seed,
           std::initializer_list<std::uint64_t> components)
{
    std::uint64_t h = mix64(root_seed);
    for (std::uint64_t c : components)
        h = mix64(h ^ mix64(c));
    return h ? h : 0x9e3779b97f4a7c15ull;
}

/** Hash a string identity component (e.g. a load-profile name). */
constexpr std::uint64_t
seedComponent(std::string_view s)
{
    std::uint64_t h = 0x243f6a8885a308d3ull; // pi, nothing up the sleeve
    for (char c : s)
        h = mix64(h ^ static_cast<unsigned char>(c));
    return h;
}

/** Hash a double identity component (e.g. a load-scale axis) by bits. */
inline std::uint64_t
seedComponent(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * A seeded pseudo-random source. One Rng per simulation keeps runs
 * reproducible; components draw from the simulation's Rng rather than
 * owning their own.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eedcafef00dULL) : engine_(seed) {}

    /** Re-seed the engine (restarts the deterministic stream). */
    void seed(std::uint64_t s) { engine_.seed(s); }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
    }

    /**
     * Exponentially distributed interval with the given mean, rounded
     * to at least one tick. Used for Poisson arrival processes and for
     * sampling fault inter-arrival times from MTTFs.
     */
    Tick
    exponential(Tick mean)
    {
        double m = static_cast<double>(mean);
        double d = std::exponential_distribution<double>(1.0 / m)(engine_);
        Tick t = static_cast<Tick>(d);
        return t == 0 ? 1 : t;
    }

    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

/**
 * Zipf-distributed sampler over [0, n): item i is drawn with
 * probability proportional to 1 / (i + 1)^alpha.
 *
 * Uses a precomputed CDF plus a guide table: bucket k of the guide
 * holds the first item whose cdf reaches k / G, so a draw u in bucket
 * floor(u * G) needs only a short scan between two guide entries (none
 * when the bucket lies inside one item). The result is exactly
 * std::lower_bound's index over the CDF, which the behaviour DB
 * depends on, at O(1) expected cost. Web-file popularity is well modelled by Zipf with alpha near 0.8,
 * which is what the PRESS evaluation traces exhibit.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of distinct items (files).
     * @param alpha Skew parameter; larger is more skewed.
     */
    ZipfSampler(std::size_t n, double alpha);

    /** Draw one item index in [0, n). */
    std::size_t sample(Rng &rng) const { return itemAt(rng.uniform()); }

    /**
     * The item a uniform draw @p u in [0, 1] maps to: the first i with
     * P(item <= i) >= u, i.e. std::lower_bound over the CDF.
     */
    std::size_t itemAt(double u) const;

    /** Probability mass of item @p i. */
    double pmf(std::size_t i) const;

    /**
     * Fraction of accesses covered by the @p k most popular items.
     * Used to pre-warm caches analytically.
     */
    double coverage(std::size_t k) const;

    std::size_t size() const { return cdf_.size(); }
    double alpha() const { return alpha_; }

  private:
    /** Guide buckets: 16 Ki 32-bit entries keep the table at 64 KiB
     *  whatever n is. A power of two, so u * G and k / G are exact. */
    static constexpr std::size_t guideSize = std::size_t{1} << 14;

    double alpha_;
    std::vector<double> cdf_; ///< cdf_[i] = P(item <= i)
    /** guide_[k] = first i with cdf_[i] >= k / guideSize. */
    std::vector<std::uint32_t> guide_;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_RANDOM_HH
