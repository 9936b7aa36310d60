/**
 * @file
 * Unit and property tests for the random utilities, in particular the
 * Zipf sampler that drives file popularity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/random.hh"

using namespace performa::sim;

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.uniformInt(3, 7);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 7u);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialNeverZero)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(r.exponential(2), 1u);
}

/** Property: sample mean of the exponential tracks the requested mean. */
class ExponentialMeanSweep
    : public ::testing::TestWithParam<Tick>
{};

TEST_P(ExponentialMeanSweep, MeanWithinTenPercent)
{
    Rng r(1234);
    Tick mean = GetParam();
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.exponential(mean));
    double m = sum / n;
    EXPECT_NEAR(m, static_cast<double>(mean),
                0.1 * static_cast<double>(mean));
}

INSTANTIATE_TEST_SUITE_P(Means, ExponentialMeanSweep,
                         ::testing::Values(usec(100), msec(1), msec(50),
                                           sec(1)));

TEST(Zipf, PmfSumsToOne)
{
    ZipfSampler z(1000, 0.8);
    double sum = 0;
    for (std::size_t i = 0; i < z.size(); ++i)
        sum += z.pmf(i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfMonotonicallyDecreasing)
{
    ZipfSampler z(500, 0.8);
    for (std::size_t i = 1; i < z.size(); ++i)
        EXPECT_LE(z.pmf(i), z.pmf(i - 1) + 1e-12);
}

TEST(Zipf, CoverageMonotonic)
{
    ZipfSampler z(1000, 0.8);
    EXPECT_DOUBLE_EQ(z.coverage(0), 0.0);
    EXPECT_DOUBLE_EQ(z.coverage(1000), 1.0);
    EXPECT_DOUBLE_EQ(z.coverage(5000), 1.0);
    double prev = 0;
    for (std::size_t k = 1; k <= 1000; k += 37) {
        double c = z.coverage(k);
        EXPECT_GE(c, prev);
        prev = c;
    }
}

TEST(Zipf, HotItemsDominateSamples)
{
    ZipfSampler z(10000, 0.8);
    Rng r(5);
    std::size_t hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (z.sample(r) < 1000)
            ++hot;
    }
    // Top 10% of a 0.8-skew Zipf carries well over a third of mass.
    double frac = static_cast<double>(hot) / n;
    EXPECT_NEAR(frac, z.coverage(1000), 0.03);
}

TEST(Zipf, SampleWithinRange)
{
    ZipfSampler z(64, 1.0);
    Rng r(9);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(z.sample(r), 64u);
}

/** Property: empirical frequency of item 0 tracks pmf(0) across skews. */
class ZipfSkewSweep : public ::testing::TestWithParam<double>
{};

TEST_P(ZipfSkewSweep, TopItemFrequencyMatchesPmf)
{
    double alpha = GetParam();
    ZipfSampler z(2048, alpha);
    Rng r(31);
    int zero = 0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
        if (z.sample(r) == 0)
            ++zero;
    }
    EXPECT_NEAR(static_cast<double>(zero) / n, z.pmf(0),
                0.1 * z.pmf(0) + 0.005);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSkewSweep,
                         ::testing::Values(0.4, 0.8, 1.0, 1.4));

/**
 * Differential: the guide-table lookup must return exactly
 * std::lower_bound's index over the CDF for every draw — random ones,
 * every CDF value and its floating-point neighbours, and a dyadic grid
 * that hits every guide bucket edge.
 */
TEST(ZipfDifferential, MatchesLowerBound)
{
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{1024},
                          std::size_t{68000}}) {
        SCOPED_TRACE(n);
        ZipfSampler z(n, 0.8);
        // coverage(i + 1) is P(item <= i); the last one is exactly 1.
        std::vector<double> cdf(n);
        for (std::size_t i = 0; i < n; ++i)
            cdf[i] = z.coverage(i + 1);
        ASSERT_EQ(cdf.back(), 1.0);
        auto reference = [&cdf](double u) {
            auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
            return it == cdf.end()
                       ? cdf.size() - 1
                       : static_cast<std::size_t>(it - cdf.begin());
        };
        std::uint64_t checked = 0;
        std::uint64_t mismatches = 0;
        auto check = [&](double u) {
            if (!(u >= 0.0 && u <= 1.0))
                return;
            ++checked;
            if (z.itemAt(u) != reference(u))
                ++mismatches;
        };

        Rng rng(2024 + n);
        for (int i = 0; i < 1000000; ++i)
            check(rng.uniform());
        for (double c : cdf) {
            check(c);
            check(std::nextafter(c, 0.0));
            check(std::nextafter(c, 2.0));
        }
        for (std::uint32_t k = 0; k <= (1u << 16); ++k) {
            double u = std::ldexp(static_cast<double>(k), -16);
            check(u);
            check(std::nextafter(u, 0.0));
            check(std::nextafter(u, 2.0));
        }
        EXPECT_GT(checked, 1000000u);
        EXPECT_EQ(mismatches, 0u);
    }
}
