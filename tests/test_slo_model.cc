/**
 * @file
 * Tests for the latency-SLO extension of the phase-2 model: goodput
 * fractions through resolveStages, P_slo in the evaluator, latency
 * columns in the behaviour database, SLO extraction from a latency
 * timeline, and the seed contract of the profile axis.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "campaign/phase1.hh"
#include "core/performability.hh"
#include "exp/behavior_db.hh"
#include "exp/stages.hh"

using namespace performa;
using namespace performa::model;

namespace {

/** A healed, detected behaviour with a latency view attached. */
MeasuredBehavior
behaviorWithLatency()
{
    MeasuredBehavior mb;
    mb.normalTput = 1000.0;
    mb.detected = true;
    mb.healed = true;
    mb.tput = {900, 600, 800, 850, 1000, 0, 600};
    mb.dur = {2, 10, 0, 15, 0, 0, 0};
    mb.latency.present = true;
    mb.latency.sloQuantile = 0.99;
    mb.latency.sloThresholdUs = 500000;
    mb.latency.fracWithinNormal = 0.995;
    mb.latency.fracWithin = {0.5, 0.4, 0.7, 0.9, 0.99, 1.0, 0.4};
    return mb;
}

FaultClass
someFaultClass()
{
    FaultClass fc;
    fc.name = "node crash";
    fc.kind = fault::FaultKind::NodeCrash;
    fc.count = 4;
    fc.mttfSec = 14 * 86400.0;
    fc.mttrSec = 180.0;
    return fc;
}

} // namespace

// ---------------------------------------------------------------------
// resolveStages
// ---------------------------------------------------------------------

TEST(ResolveStagesSlo, NoLatencyDataMeansAllWithin)
{
    MeasuredBehavior mb = behaviorWithLatency();
    mb.latency = LatencySummary{};
    ResolvedStages rs = resolveStages(mb, 180.0, EnvParams{});
    for (int s = 0; s < numStages; ++s)
        EXPECT_DOUBLE_EQ(rs.fracWithin[s], 1.0) << "stage " << s;
}

TEST(ResolveStagesSlo, HealedRemapsStagesEAndGToNormalFraction)
{
    MeasuredBehavior mb = behaviorWithLatency();
    ResolvedStages rs = resolveStages(mb, 180.0, EnvParams{});
    EXPECT_DOUBLE_EQ(rs.fracWithin[StageA], 0.5);
    EXPECT_DOUBLE_EQ(rs.fracWithin[StageB], 0.4);
    EXPECT_DOUBLE_EQ(rs.fracWithin[StageC], 0.7);
    // Healed: stages E and G run at normal operation, so their SLO
    // fractions follow the normal-operation fraction.
    EXPECT_DOUBLE_EQ(rs.fracWithin[StageE], 0.995);
    EXPECT_DOUBLE_EQ(rs.fracWithin[StageG], 0.995);
}

TEST(ResolveStagesSlo, UndetectedCopiesStageAFraction)
{
    MeasuredBehavior mb = behaviorWithLatency();
    mb.detected = false;
    ResolvedStages rs = resolveStages(mb, 180.0, EnvParams{});
    EXPECT_DOUBLE_EQ(rs.fracWithin[StageB], rs.fracWithin[StageA]);
    EXPECT_DOUBLE_EQ(rs.fracWithin[StageC], rs.fracWithin[StageA]);
}

// ---------------------------------------------------------------------
// evaluate
// ---------------------------------------------------------------------

TEST(PerformabilitySlo, SloMetricsRequireLatencyOnEveryBehavior)
{
    PerformabilityModel m(1000.0);
    m.addFault(someFaultClass(), behaviorWithLatency());
    MeasuredBehavior plain = behaviorWithLatency();
    plain.latency = LatencySummary{};
    FaultClass fc2 = someFaultClass();
    fc2.name = "app crash";
    fc2.kind = fault::FaultKind::AppCrash;
    m.addFault(fc2, plain);

    PerfResult r = m.evaluate();
    EXPECT_FALSE(r.sloValid);
    EXPECT_DOUBLE_EQ(r.sloPerformability, 0.0);
    // The throughput metrics are untouched.
    EXPECT_GT(r.performability, 0.0);
}

TEST(PerformabilitySlo, SloPerformabilityPenalizesSlowStages)
{
    PerformabilityModel m(1000.0);
    m.addFault(someFaultClass(), behaviorWithLatency());
    PerfResult r = m.evaluate();

    ASSERT_TRUE(r.sloValid);
    EXPECT_NEAR(r.sloNormalTput, 995.0, 1e-9);
    // Goodput during fault stages is strictly below throughput, so
    // SLO availability and performability sit below the raw ones.
    EXPECT_LT(r.sloAvailability, r.availability);
    EXPECT_LT(r.sloPerformability, r.performability);
    EXPECT_GT(r.sloPerformability, 0.0);
    ASSERT_EQ(r.breakdown.size(), 1u);
    EXPECT_GT(r.breakdown[0].sloUnavailability,
              r.breakdown[0].unavailability);
}

TEST(PerformabilitySlo, PerfectLatencyMatchesThroughputMetrics)
{
    MeasuredBehavior mb = behaviorWithLatency();
    mb.latency.fracWithinNormal = 1.0;
    mb.latency.fracWithin = {1, 1, 1, 1, 1, 1, 1};
    PerformabilityModel m(1000.0);
    m.addFault(someFaultClass(), mb);
    PerfResult r = m.evaluate();

    ASSERT_TRUE(r.sloValid);
    EXPECT_DOUBLE_EQ(r.sloNormalTput, r.normalTput);
    EXPECT_NEAR(r.sloAvailability, r.availability, 1e-12);
    EXPECT_NEAR(r.sloPerformability, r.performability, 1e-6);
}

// ---------------------------------------------------------------------
// BehaviorDb round trip
// ---------------------------------------------------------------------

TEST(BehaviorDbSlo, LatencyColumnsRoundTrip)
{
    exp::BehaviorDb db;
    MeasuredBehavior mb = behaviorWithLatency();
    mb.latency.p50Us = 1200;
    mb.latency.p99Us = 480000;
    mb.latency.stageP99Us[StageB] = 900000;
    db.set(press::Version::TcpPress, fault::FaultKind::NodeCrash, mb);

    std::string path = "test_slo_db.csv";
    db.save(path);

    exp::BehaviorDb loaded;
    ASSERT_TRUE(loaded.load(path));
    const MeasuredBehavior &got =
        loaded.get(press::Version::TcpPress, fault::FaultKind::NodeCrash);
    EXPECT_TRUE(got.latency.present);
    EXPECT_DOUBLE_EQ(got.latency.sloQuantile, 0.99);
    EXPECT_DOUBLE_EQ(got.latency.sloThresholdUs, 500000);
    EXPECT_DOUBLE_EQ(got.latency.fracWithinNormal, 0.995);
    EXPECT_DOUBLE_EQ(got.latency.fracWithin[StageB], 0.4);
    EXPECT_DOUBLE_EQ(got.latency.p50Us, 1200);
    EXPECT_DOUBLE_EQ(got.latency.p99Us, 480000);
    EXPECT_DOUBLE_EQ(got.latency.stageP99Us[StageB], 900000);
    EXPECT_DOUBLE_EQ(got.normalTput, mb.normalTput);
    std::remove(path.c_str());
}

TEST(BehaviorDbSlo, PlainRowsKeepTheHistoricalFormat)
{
    exp::BehaviorDb db;
    MeasuredBehavior mb = behaviorWithLatency();
    mb.latency = LatencySummary{};
    db.set(press::Version::TcpPress, fault::FaultKind::NodeCrash, mb);

    std::string path = "test_plain_db.csv";
    db.save(path);
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header.find(",lat"), std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Extraction from a latency timeline
// ---------------------------------------------------------------------

TEST(ExtractionSlo, SlicesTheTimelineAtStageBoundaries)
{
    exp::ExperimentResult res;
    res.injectAt = sim::sec(60);
    res.runLength = sim::sec(300);
    res.normalThroughput = 1000.0;
    for (std::uint64_t t = 0; t < 300; ++t) {
        if (t < 60 || t >= 180)
            res.served.record(sim::sec(t), 1000);
        else if (t >= 75)
            res.served.record(sim::sec(t), 800);
    }
    res.markers.add(sim::sec(75), press::MarkerKind::Exclude, 0, 3);

    // Normal operation: fast. Degraded regime: slow.
    for (std::uint64_t t = 0; t < 60; ++t)
        res.latency.record(sim::sec(t), sim::msec(20));
    for (std::uint64_t t = 75; t < 180; ++t)
        res.latency.record(sim::sec(t), sim::msec(900));
    for (std::uint64_t t = 180; t < 300; ++t)
        res.latency.record(sim::sec(t), sim::msec(20));

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::LinkDown;
    spec.injectAt = sim::sec(60);
    spec.duration = sim::sec(120);

    exp::ExtractionParams p;
    p.slo = LatencySlo{0.99, sim::msec(500)};
    MeasuredBehavior mb = exp::extractBehavior(res, spec, p);

    ASSERT_TRUE(mb.latency.present);
    EXPECT_DOUBLE_EQ(mb.latency.fracWithinNormal, 1.0);
    EXPECT_NEAR(mb.latency.p50Us, sim::msec(20), sim::msec(1));
    // Stage A [60, 75) saw no responses at all: no SLO evidence.
    EXPECT_DOUBLE_EQ(mb.latency.fracWithin[StageA], 1.0);
    // Stages B/C sit inside the slow regime.
    EXPECT_DOUBLE_EQ(mb.latency.fracWithin[StageC], 0.0);
    EXPECT_GT(mb.latency.stageP99Us[StageC], sim::msec(500));
    // Post-recovery: fast again.
    EXPECT_DOUBLE_EQ(mb.latency.fracWithin[StageE], 1.0);
    // G mirrors B.
    EXPECT_DOUBLE_EQ(mb.latency.fracWithin[StageG],
                     mb.latency.fracWithin[StageB]);
}

TEST(ExtractionSlo, NoSloRequestedLeavesLatencyAbsent)
{
    exp::ExperimentResult res;
    res.injectAt = sim::sec(60);
    res.runLength = sim::sec(300);
    res.normalThroughput = 1000.0;
    for (std::uint64_t t = 0; t < 300; ++t)
        res.served.record(sim::sec(t), 1000);

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::LinkDown;
    spec.injectAt = sim::sec(60);
    spec.duration = sim::sec(120);

    MeasuredBehavior mb = exp::extractBehavior(res, spec);
    EXPECT_FALSE(mb.latency.present);
}

// ---------------------------------------------------------------------
// Seed contract of the profile axis
// ---------------------------------------------------------------------

TEST(ProfileSeeds, DefaultProfileKeepsCombinationSeeds)
{
    using campaign::phase1Seed;
    auto v = press::Version::ViaPress3;
    EXPECT_EQ(phase1Seed(42, v), phase1Seed(42, v, 4, 1.0, ""));
    EXPECT_EQ(phase1Seed(42, v), phase1Seed(42, v, 4, 1.0, "steady"));
    EXPECT_NE(phase1Seed(42, v),
              phase1Seed(42, v, 4, 1.0, "flashcrowd"));
    EXPECT_NE(phase1Seed(42, v, 4, 1.0, "flashcrowd"),
              phase1Seed(42, v, 4, 1.0, "sessions"));
}

TEST(ProfileSeeds, ProfileEntersTheConfigButSloDoesNot)
{
    campaign::Phase1Options opts;
    opts.profile = *loadgen::profileByName("flashcrowd");
    exp::ExperimentConfig withProfile = campaign::phase1Config(
        press::Version::TcpPress, fault::FaultKind::NodeCrash, opts);

    campaign::Phase1Options plain;
    exp::ExperimentConfig base = campaign::phase1Config(
        press::Version::TcpPress, fault::FaultKind::NodeCrash, plain);

    EXPECT_NE(withProfile.seed, base.seed);
    EXPECT_EQ(withProfile.profile.name, "flashcrowd");

    // The SLO is observation only: it must not perturb the seed.
    campaign::Phase1Options slo;
    slo.slo = LatencySlo{0.99, 500000};
    exp::ExperimentConfig withSlo = campaign::phase1Config(
        press::Version::TcpPress, fault::FaultKind::NodeCrash, slo);
    EXPECT_EQ(withSlo.seed, base.seed);
}
