/**
 * @file
 * Unit tests for the stage extractor on hand-built series and marker
 * logs — every branch of the 7-stage mapping, without running a
 * simulation.
 */

#include <gtest/gtest.h>

#include "exp/report.hh"
#include <cstdio>
#include <fstream>

#include "exp/stages.hh"

using namespace performa;
using namespace performa::sim;

namespace {

/** Fill [from, to) seconds of the served series at @p rate per sec. */
void
fill(exp::ExperimentResult &res, std::uint64_t from, std::uint64_t to,
     std::uint64_t rate)
{
    for (std::uint64_t t = from; t < to; ++t)
        res.served.record(sec(t), rate);
}

exp::ExperimentResult
baseResult()
{
    exp::ExperimentResult res;
    res.injectAt = sec(60);
    res.runLength = sec(300);
    res.normalThroughput = 1000.0;
    return res;
}

fault::FaultSpec
linkSpec()
{
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::LinkDown;
    spec.injectAt = sec(60);
    spec.duration = sec(120); // repair at t=180
    return spec;
}

} // namespace

TEST(StageExtractorUnit, UndetectedStallThatHeals)
{
    exp::ExperimentResult res = baseResult();
    fill(res, 0, 60, 1000);
    fill(res, 60, 180, 0);    // stall through the fault
    fill(res, 180, 300, 1000); // instant resume

    auto mb = exp::extractBehavior(res, linkSpec());
    EXPECT_FALSE(mb.detected);
    EXPECT_NEAR(mb.dur[model::StageA], 120.0, 0.1);
    EXPECT_NEAR(mb.tput[model::StageA], 0.0, 1.0);
    EXPECT_TRUE(mb.healed);
    EXPECT_DOUBLE_EQ(mb.tput[model::StageE], 1000.0);
}

TEST(StageExtractorUnit, DetectedSplinterNeedsOperator)
{
    exp::ExperimentResult res = baseResult();
    fill(res, 0, 60, 1000);
    fill(res, 60, 75, 0);     // detection window
    fill(res, 75, 300, 800);  // splintered forever
    res.markers.add(sec(75), press::MarkerKind::Exclude, 0, 3);
    res.endSplintered = true;

    auto mb = exp::extractBehavior(res, linkSpec());
    EXPECT_TRUE(mb.detected);
    EXPECT_NEAR(mb.dur[model::StageA], 15.0, 0.1);
    EXPECT_NEAR(mb.tput[model::StageC], 800.0, 20.0);
    EXPECT_FALSE(mb.healed);
    EXPECT_NEAR(mb.tput[model::StageE], 800.0, 20.0);
}

TEST(StageExtractorUnit, HighThroughputButSplinteredIsNotHealed)
{
    exp::ExperimentResult res = baseResult();
    fill(res, 0, 60, 1000);
    fill(res, 60, 300, 990); // barely degraded...
    res.markers.add(sec(60), press::MarkerKind::Exclude, 0, 3);
    res.endSplintered = true; // ...but structurally split

    auto mb = exp::extractBehavior(res, linkSpec());
    EXPECT_FALSE(mb.healed);
}

TEST(StageExtractorUnit, FailFastCountsAsDetection)
{
    exp::ExperimentResult res = baseResult();
    fill(res, 0, 60, 1000);
    fill(res, 60, 90, 700);
    fill(res, 90, 300, 1000);
    res.markers.add(sec(60), press::MarkerKind::FailFast, 3);
    res.markers.add(sec(90), press::MarkerKind::Started, 3);

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::BadParamNull; // no duration
    spec.injectAt = sec(60);
    auto mb = exp::extractBehavior(res, spec);
    EXPECT_TRUE(mb.detected);
    EXPECT_LT(mb.dur[model::StageA], 1.0);
    EXPECT_TRUE(mb.healed);
}

TEST(StageExtractorUnit, RecoveryTransientEndsAtStabilization)
{
    exp::ExperimentResult res = baseResult();
    fill(res, 0, 60, 1000);
    fill(res, 60, 180, 0);
    fill(res, 180, 230, 0);    // backoff keeps it dark post-repair
    fill(res, 230, 300, 1000); // then snaps back

    auto mb = exp::extractBehavior(res, linkSpec());
    EXPECT_FALSE(mb.detected);
    // Stage D covers the post-repair dead time (~50s), not just a
    // fixed window.
    EXPECT_GE(mb.dur[model::StageD], 45.0);
    EXPECT_TRUE(mb.healed);
}

TEST(StageExtractorUnit, BenignFaultIsInvisible)
{
    exp::ExperimentResult res = baseResult();
    fill(res, 0, 300, 1000);
    auto mb = exp::extractBehavior(res, linkSpec());
    EXPECT_FALSE(mb.detected);
    EXPECT_NEAR(mb.tput[model::StageA], 1000.0, 5.0);
    EXPECT_TRUE(mb.healed);
}

TEST(StageExtractorUnit, WriteSeriesCsvRoundTrips)
{
    exp::ExperimentResult res = baseResult();
    fill(res, 0, 10, 123);
    std::string path = ::testing::TempDir() + "/series.csv";
    ASSERT_TRUE(exp::writeSeriesCsv(res, path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header, row;
    std::getline(in, header);
    EXPECT_EQ(header, "t_sec,served,failed,offered");
    std::getline(in, row);
    EXPECT_EQ(row, "0,123,0,0");
    std::remove(path.c_str());
}
