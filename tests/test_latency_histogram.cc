/**
 * @file
 * Unit tests for the log-linear latency histogram and the latency
 * timeline: empty-histogram semantics, bucket boundaries, relative
 * quantile error, merge associativity, overflow saturation at the
 * fixed 64 s bound, window slicing against wall-clock boundaries,
 * sealed sparse seconds that expand to the same windows as dense
 * ones, a PANIC for a sample recorded into a sealed second, and a
 * restored copy that records on like the original.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "sim/latency_histogram.hh"

using namespace performa::sim;

TEST(LatencyHistogram, EmptyHistogramHasNaNQuantiles)
{
    LatencyHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
    EXPECT_TRUE(std::isnan(h.quantile(0.99)));
    EXPECT_EQ(h.countAtOrBelow(msec(100)), 0u);
    // An empty window carries no evidence of an SLO violation.
    EXPECT_DOUBLE_EQ(h.fractionAtOrBelow(msec(100)), 1.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, LinearRegionIsExact)
{
    LatencyHistogram h;
    // Below 2^subBucketBits every value has its own bucket.
    for (std::uint64_t v = 0; v < 64; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 64u);
    EXPECT_EQ(h.countAtOrBelow(31), 32u);
    EXPECT_EQ(h.countAtOrBelow(63), 64u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 31.0);
}

TEST(LatencyHistogram, QuantileRelativeErrorIsBounded)
{
    LatencyHistogram h;
    const double maxRel = std::ldexp(1.0, 1 - 6); // 2^(1-S) = 3.125%
    for (std::uint64_t v : {100ull, 1000ull, 12345ull, 999999ull,
                            5000000ull, 30000000ull}) {
        h.clear();
        h.record(v);
        double q = h.quantile(1.0);
        EXPECT_GE(q, static_cast<double>(v));
        EXPECT_LE(q, static_cast<double>(v) * (1.0 + maxRel))
            << "value " << v;
    }
}

TEST(LatencyHistogram, QuantileClampsToMaxRecorded)
{
    LatencyHistogram h;
    h.record(1000);
    // The bucket's upper bound is >= 1000; the quantile must not
    // exceed the largest sample actually seen.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1000.0);
}

TEST(LatencyHistogram, CountAtOrBelowIsBucketGranular)
{
    LatencyHistogram h;
    h.record(10);
    h.record(msec(1));
    h.record(msec(100));
    EXPECT_EQ(h.countAtOrBelow(10), 1u);
    EXPECT_EQ(h.countAtOrBelow(msec(2)), 2u);
    EXPECT_EQ(h.countAtOrBelow(sec(1)), 3u);
    EXPECT_DOUBLE_EQ(h.fractionAtOrBelow(msec(2)), 2.0 / 3.0);
}

TEST(LatencyHistogram, OverflowSaturatesAtMaxValue)
{
    LatencyHistogram h;
    h.record(sec(100)); // both past the 64 s bound: the overflow bucket
    h.record(sec(500));
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.maxRecorded(), sec(500));
    // Overflowed samples only count as within-bound at the recorded
    // maximum and above.
    EXPECT_EQ(h.countAtOrBelow(sec(200)), 0u);
    EXPECT_EQ(h.countAtOrBelow(sec(500)), 2u);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), static_cast<double>(sec(500)));
}

TEST(LatencyHistogram, MergeIsAssociativeAndCommutative)
{
    auto make = [](std::initializer_list<std::uint64_t> vals) {
        LatencyHistogram h;
        for (std::uint64_t v : vals)
            h.record(v);
        return h;
    };
    LatencyHistogram a = make({10, 200, msec(3)});
    LatencyHistogram b = make({55, msec(40)});
    LatencyHistogram c = make({msec(900), sec(2)});

    LatencyHistogram ab = a;
    ab.merge(b);
    LatencyHistogram ab_c = ab;
    ab_c.merge(c);

    LatencyHistogram bc = b;
    bc.merge(c);
    LatencyHistogram a_bc = a;
    a_bc.merge(bc);

    LatencyHistogram ba = b;
    ba.merge(a);

    EXPECT_EQ(ab_c.count(), a_bc.count());
    EXPECT_EQ(ab_c.maxRecorded(), a_bc.maxRecorded());
    EXPECT_DOUBLE_EQ(ab_c.mean(), a_bc.mean());
    for (double q : {0.1, 0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(ab_c.quantile(q), a_bc.quantile(q));
    EXPECT_DOUBLE_EQ(ab.quantile(0.5), ba.quantile(0.5));
}

TEST(LatencyHistogram, WeightedRecordMatchesRepeatedRecord)
{
    LatencyHistogram a, b;
    a.record(msec(7), 10);
    for (int i = 0; i < 10; ++i)
        b.record(msec(7));
    EXPECT_EQ(a.count(), b.count());
    EXPECT_DOUBLE_EQ(a.mean(), b.mean());
    EXPECT_DOUBLE_EQ(a.quantile(0.5), b.quantile(0.5));
}

TEST(LatencyHistogram, ClearResetsEverything)
{
    LatencyHistogram h;
    h.record(msec(5));
    h.clear();
    EXPECT_TRUE(h.empty());
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
    EXPECT_EQ(h.maxRecorded(), 0u);
}

TEST(StageLatencyTimeline, RecordsIntoSecondSlices)
{
    StageLatencyTimeline tl;
    tl.record(sec(1), msec(10));
    tl.record(sec(5), msec(50));

    EXPECT_EQ(tl.sliceCount(), 6u);
    EXPECT_EQ(tl.window(LatencyStage::Total, 0, sec(6)).count(), 2u);
    EXPECT_EQ(tl.window(LatencyStage::Total, sec(1), sec(2)).count(), 1u);
    EXPECT_TRUE(tl.window(LatencyStage::Total, sec(2), sec(5)).empty());
}

TEST(StageLatencyTimeline, WindowSelectsOverlappingSlices)
{
    StageLatencyTimeline tl;
    tl.record(sec(1), msec(10));
    tl.record(sec(5), msec(50));
    tl.record(sec(9), msec(90));

    LatencyHistogram w = tl.window(LatencyStage::Total, sec(4), sec(6));
    EXPECT_EQ(w.count(), 1u);
    EXPECT_DOUBLE_EQ(w.quantile(1.0), static_cast<double>(msec(50)));

    LatencyHistogram all =
        tl.window(LatencyStage::Total, 0, sec(100));
    EXPECT_EQ(all.count(), 3u);

    LatencyHistogram none =
        tl.window(LatencyStage::Total, sec(2), sec(2));
    EXPECT_TRUE(none.empty());
}

TEST(StageLatencyTimeline, ReservedSlicesCoverRecording)
{
    // A reservation is capacity, not slices: slices exist up to the
    // last second recorded, so a snapshot copies only the run so far.
    StageLatencyTimeline tl(20);
    EXPECT_EQ(tl.sliceCount(), 0u);
    tl.record(sec(5), msec(2));
    EXPECT_EQ(tl.sliceCount(), 6u);
    tl.record(sec(19), msec(3));
    EXPECT_EQ(tl.sliceCount(), 20u);
    tl.record(sec(25), msec(4));
    EXPECT_EQ(tl.sliceCount(), 26u); // grew past the reservation
    EXPECT_EQ(tl.window(LatencyStage::Total, 0, sec(100)).count(), 3u);
}

TEST(StageLatencyTimelineDeath, RecordingIntoASealedSecondPanics)
{
    // Samples arrive at the simulation's own clock, so one landing in
    // a second already sealed is a caller bug, not a late sample.
    StageLatencyTimeline tl(10);
    tl.record(sec(1), msec(3));
    tl.record(sec(3), msec(3));
    tl.record(sec(3) + msec(10), msec(4)); // the open second: fine
    EXPECT_EQ(tl.window(LatencyStage::Total, 0, sec(4)).count(), 3u);
    EXPECT_DEATH(tl.record(sec(2) + msec(999), msec(5)),
                 "at second 2 arrived after second 3");
}

TEST(StageLatencyTimeline, WholeRunWindowEqualsTheCumulativeHistogram)
{
    // Slices keep 32-bit bucket counts beside 64-bit totals; merged
    // over the whole run they must give back a dense histogram of
    // every sample bucket for bucket. The stream covers the exact
    // region (< 64 us), the overflow bucket (>= 64 s), and one second
    // that puts more than 2^16 samples into a single bucket.
    std::mt19937_64 rng(17);
    const Tick end = sec(40);
    std::vector<std::pair<Tick, std::uint64_t>> samples;
    for (int i = 0; i < 200000; ++i) {
        Tick at = rng() % end;
        std::uint64_t v;
        switch (rng() % 4) {
          case 0:
            v = rng() % 64;
            break;
          case 1:
            v = sec(64) + rng() % sec(100);
            break;
          default:
            v = rng() % sec(8);
            break;
        }
        samples.push_back({at, v});
    }
    for (int i = 0; i < 70000; ++i)
        samples.push_back({sec(12) + i, msec(250)});
    std::stable_sort(samples.begin(), samples.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    StageLatencyTimeline tl(40);
    LatencyHistogram whole;
    for (const auto &[at, v] : samples) {
        tl.record(at, v);
        whole.record(v);
    }
    LatencyHistogram merged = tl.window(LatencyStage::Total, 0, end);
    EXPECT_TRUE(merged == whole);
    EXPECT_EQ(merged.count(), 270000u);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.maxRecorded(), whole.maxRecorded());
    EXPECT_GE(whole.maxRecorded(), sec(64));
    EXPECT_DOUBLE_EQ(merged.mean(), whole.mean());
    for (int i = 0; i <= 1000; ++i) {
        double q = i / 1000.0;
        EXPECT_DOUBLE_EQ(merged.quantile(q), whole.quantile(q)) << q;
    }
    for (std::uint64_t v = 0; v < sec(200); v = v < 128 ? v + 1 : v * 9 / 8)
        EXPECT_EQ(merged.countAtOrBelow(v), whole.countAtOrBelow(v)) << v;
    EXPECT_EQ(merged.countAtOrBelow(msec(250)) -
                  merged.countAtOrBelow(msec(246)),
              whole.countAtOrBelow(msec(250)) -
                  whole.countAtOrBelow(msec(246)));
}

namespace {

/** One recorded sample. */
struct Sample
{
    Tick at;
    std::uint64_t value;
};

/** Every sample of @p samples in a second overlapping [from, to),
 *  recorded into one dense histogram. */
LatencyHistogram
denseWindow(const std::vector<Sample> &samples, Tick from, Tick to)
{
    LatencyHistogram h;
    if (to <= from)
        return h;
    Tick lo = from / sec(1) * sec(1);
    Tick hi = (to + sec(1) - 1) / sec(1) * sec(1);
    for (const Sample &x : samples)
        if (x.at >= lo && x.at < hi)
            h.record(x.value);
    return h;
}

/** A time-ordered stream over [0, 60 s) with empty seconds, gaps of
 *  several seconds, and mostly-narrow seconds beside a few wide ones. */
std::vector<Sample>
monotonicStream(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<Sample> out;
    Tick at = 0;
    while (at < sec(60)) {
        switch (rng() % 16) {
          case 0:
            at += sec(1) + rng() % sec(6); // skips whole seconds
            break;
          case 1:
            out.push_back({at, rng() % sec(100)}); // anywhere, overflow too
            break;
          default:
            out.push_back({at, msec(2) + rng() % msec(30)});
            break;
        }
        at += rng() % msec(40);
    }
    return out;
}

} // namespace

TEST(StageLatencyTimeline, SealedWindowsEqualADenseReference)
{
    // Windows over sealed seconds, the open second and the boundary
    // between them give back exactly what dense per-second slices
    // would, including across empty seconds and multi-second gaps.
    std::vector<Sample> samples = monotonicStream(5);
    StageLatencyTimeline tl(64);
    std::mt19937_64 rng(9);
    std::size_t next = 0;
    for (Tick now = sec(1); now <= sec(61); now += msec(700)) {
        for (; next < samples.size() && samples[next].at < now; ++next)
            tl.record(samples[next].at, samples[next].value);
        if (next == 0)
            continue;
        std::vector<Sample> sofar(samples.begin(), samples.begin() + next);
        for (int i = 0; i < 20; ++i) {
            Tick from = rng() % (now + sec(3));
            Tick to = from + rng() % sec(8);
            EXPECT_TRUE(tl.window(LatencyStage::Total, from, to) ==
                        denseWindow(sofar, from, to))
                << "window [" << from << ", " << to << ") at " << now;
        }
        // The open second alone, and with the sealed second before it.
        Tick open = sofar.back().at / sec(1) * sec(1);
        EXPECT_TRUE(tl.window(LatencyStage::Total, open, open + 1) ==
                    denseWindow(sofar, open, open + 1));
        if (open > 0) {
            EXPECT_TRUE(tl.window(LatencyStage::Total, open - 1, open + 1) ==
                        denseWindow(sofar, open - 1, open + 1));
        }
    }
    ASSERT_EQ(next, samples.size());
    EXPECT_EQ(tl.sliceCount(), samples.back().at / sec(1) + 1);
    EXPECT_TRUE(tl.window(LatencyStage::Total, 0, sec(100)) ==
                denseWindow(samples, 0, sec(100)));
}

TEST(StageLatencyTimeline, RestoredCopyRecordsOnLikeTheOriginal)
{
    // A fork's pattern: copy mid-second, record on past it, restore
    // the copy by assignment and record the same rest of the stream.
    std::vector<Sample> samples = monotonicStream(11);
    const Tick cut = sec(23) + msec(450);
    StageLatencyTimeline whole(64), forked(64);
    for (const Sample &x : samples)
        whole.record(x.at, x.value);

    StageLatencyTimeline saved;
    std::size_t i = 0;
    for (; samples[i].at < cut; ++i)
        forked.record(samples[i].at, samples[i].value);
    saved = forked;
    for (std::size_t j = i; j < samples.size(); j += 3)
        forked.record(samples[j].at, msec(900));
    forked = saved;
    for (std::size_t j = i; j < samples.size(); ++j)
        forked.record(samples[j].at, samples[j].value);

    EXPECT_EQ(forked.sliceCount(), whole.sliceCount());
    EXPECT_TRUE(forked.window(LatencyStage::Total, 0, sec(100)) ==
                whole.window(LatencyStage::Total, 0, sec(100)));
    for (Tick from = 0; from < sec(62); from += msec(500))
        for (Tick len : {msec(1), sec(1), sec(5), sec(30)})
            EXPECT_TRUE(forked.window(LatencyStage::Total, from, from + len) ==
                        whole.window(LatencyStage::Total, from, from + len))
                << "window [" << from << ", +" << len << ")";
}
