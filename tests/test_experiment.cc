/**
 * @file
 * Tests for the phase-1 experiment runner, stage extraction, and the
 * behaviour database round-trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/behavior_db.hh"
#include "exp/stages.hh"

using namespace performa;
using namespace performa::sim;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A fast, small experiment (low load, short run). */
exp::ExperimentConfig
fastConfig(press::Version v, fault::FaultKind k)
{
    exp::ExperimentConfig cfg;
    cfg.cluster.press.version = v;
    cfg.workload.requestRate = 1200;
    cfg.workload.numFiles = 20000;
    cfg.injectAt = sec(20);
    fault::FaultSpec spec;
    spec.kind = k;
    spec.target = 3;
    spec.duration = sec(30);
    cfg.fault = spec;
    cfg.duration = sec(110);
    return cfg;
}

} // namespace

TEST(Experiment, FaultFreeRunIsCleanAndStable)
{
    exp::ExperimentConfig cfg;
    cfg.cluster.press.version = press::Version::TcpPress;
    cfg.workload.requestRate = 1200;
    cfg.workload.numFiles = 20000;
    cfg.fault.reset();
    cfg.duration = sec(60);
    exp::ExperimentResult res = exp::runExperiment(cfg);
    EXPECT_GT(res.normalThroughput, 1000);
    EXPECT_GT(res.availability, 0.99);
    EXPECT_FALSE(res.endSplintered);
    EXPECT_EQ(res.markers.count(press::MarkerKind::Inject), 0u);
    EXPECT_EQ(res.markers.count(press::MarkerKind::Started), 4u);
}

TEST(Experiment, MarkersRecordInjectAndRecover)
{
    auto cfg = fastConfig(press::Version::ViaPress0,
                          fault::FaultKind::KernelMemAlloc);
    exp::ExperimentResult res = exp::runExperiment(cfg);
    EXPECT_EQ(res.markers.count(press::MarkerKind::Inject), 1u);
    EXPECT_EQ(res.markers.count(press::MarkerKind::Recover), 1u);
    auto inj = res.markers.firstAfter(press::MarkerKind::Inject, 0);
    ASSERT_TRUE(inj.has_value());
    EXPECT_EQ(inj->t, sec(20));
}

TEST(Experiment, IntraPortStatsAccountForClusterTraffic)
{
    auto cfg = fastConfig(press::Version::TcpPress,
                          fault::FaultKind::NodeCrash);
    exp::ExperimentResult res = exp::runExperiment(cfg);
    ASSERT_EQ(res.intraPortStats.size(),
              static_cast<std::size_t>(cfg.cluster.press.numNodes));
    std::uint64_t sent = 0, rcvd = 0, died = 0, drops = 0;
    for (const net::PortStats &st : res.intraPortStats) {
        EXPECT_GT(st.framesSent, 0u); // every node talks
        sent += st.framesSent;
        rcvd += st.framesReceived;
        died += st.dropDiedInFlight;
        drops += st.drops();
    }
    // Conservation: every accepted frame was delivered or died in
    // flight, except the few still on the wire when the run ends.
    EXPECT_GE(sent, rcvd + died);
    EXPECT_LE(sent - (rcvd + died), 64u);
    EXPECT_GT(drops, 0u); // the crash must have cost some frames

}

TEST(Experiment, DeterministicForSameSeed)
{
    auto cfg = fastConfig(press::Version::TcpPress,
                          fault::FaultKind::AppCrash);
    auto r1 = exp::runExperiment(cfg);
    auto r2 = exp::runExperiment(cfg);
    EXPECT_EQ(r1.served.total(0, cfg.duration),
              r2.served.total(0, cfg.duration));
    EXPECT_EQ(r1.markers.all().size(), r2.markers.all().size());
}

TEST(Experiment, SeedChangesJitterButNotShape)
{
    auto cfg = fastConfig(press::Version::TcpPress,
                          fault::FaultKind::AppCrash);
    auto r1 = exp::runExperiment(cfg);
    cfg.seed = 1234;
    auto r2 = exp::runExperiment(cfg);
    EXPECT_NEAR(r1.normalThroughput, r2.normalThroughput,
                0.1 * r1.normalThroughput);
}

TEST(Experiment, OperatorResetRestoresCluster)
{
    auto cfg = fastConfig(press::Version::ViaPress0,
                          fault::FaultKind::LinkDown);
    exp::Experiment e(cfg);
    e.warmUp();
    e.sim().schedule(sec(70), [&e] { e.cluster().operatorReset(); });
    exp::ExperimentResult res = e.injectAndMeasure(cfg.fault);
    EXPECT_FALSE(res.endSplintered);
    // Post-reset throughput back near normal.
    double tail = res.served.meanRate(sec(90), sec(110));
    EXPECT_GT(tail, 0.9 * res.normalThroughput);
}

TEST(StageExtraction, DetectedFaultHasShortStageA)
{
    auto cfg = fastConfig(press::Version::ViaPress0,
                          fault::FaultKind::LinkDown);
    auto res = exp::runExperiment(cfg);
    auto mb = exp::extractBehavior(res, *cfg.fault);
    EXPECT_TRUE(mb.detected);
    EXPECT_LT(mb.dur[model::StageA], 1.0); // connection break: instant
    EXPECT_FALSE(mb.healed);               // splintered
}

TEST(StageExtraction, UndetectedStallCoversFault)
{
    auto cfg = fastConfig(press::Version::TcpPress,
                          fault::FaultKind::KernelMemAlloc);
    auto res = exp::runExperiment(cfg);
    auto mb = exp::extractBehavior(res, *cfg.fault);
    EXPECT_FALSE(mb.detected);
    EXPECT_NEAR(mb.dur[model::StageA], 30.0, 0.5);
    EXPECT_LT(mb.tput[model::StageA], 0.2 * mb.normalTput);
    EXPECT_TRUE(mb.healed);
    EXPECT_DOUBLE_EQ(mb.tput[model::StageE], mb.normalTput);
}

TEST(StageExtraction, BenignFaultLooksLikeNormalOperation)
{
    auto cfg = fastConfig(press::Version::ViaPress0,
                          fault::FaultKind::KernelMemAlloc);
    auto res = exp::runExperiment(cfg);
    auto mb = exp::extractBehavior(res, *cfg.fault);
    EXPECT_TRUE(mb.healed);
    EXPECT_GT(mb.tput[model::StageA], 0.95 * mb.normalTput);
}

TEST(BehaviorDb, SetGetHas)
{
    exp::BehaviorDb db;
    EXPECT_FALSE(db.has(press::Version::TcpPress,
                        fault::FaultKind::LinkDown));
    model::MeasuredBehavior mb;
    mb.normalTput = 4242;
    db.set(press::Version::TcpPress, fault::FaultKind::LinkDown, mb);
    EXPECT_TRUE(db.has(press::Version::TcpPress,
                       fault::FaultKind::LinkDown));
    EXPECT_DOUBLE_EQ(db.get(press::Version::TcpPress,
                            fault::FaultKind::LinkDown)
                         .normalTput,
                     4242);
}

TEST(BehaviorDb, CsvRoundTrip)
{
    exp::BehaviorDb db;
    model::MeasuredBehavior mb;
    mb.normalTput = 5000.5;
    mb.detected = true;
    mb.healed = false;
    for (int s = 0; s < model::numStages; ++s) {
        mb.tput[static_cast<std::size_t>(s)] = 100.0 * s;
        mb.dur[static_cast<std::size_t>(s)] = 1.5 * s;
    }
    db.set(press::Version::ViaPress3, fault::FaultKind::NodeFreeze, mb);

    std::string path = ::testing::TempDir() + "/behaviors.csv";
    db.save(path);

    exp::BehaviorDb loaded;
    ASSERT_TRUE(loaded.load(path));
    const auto &got = loaded.get(press::Version::ViaPress3,
                                 fault::FaultKind::NodeFreeze);
    EXPECT_DOUBLE_EQ(got.normalTput, 5000.5);
    EXPECT_TRUE(got.detected);
    EXPECT_FALSE(got.healed);
    for (int s = 0; s < model::numStages; ++s) {
        EXPECT_DOUBLE_EQ(got.tput[static_cast<std::size_t>(s)],
                         100.0 * s);
        EXPECT_DOUBLE_EQ(got.dur[static_cast<std::size_t>(s)], 1.5 * s);
    }
    std::remove(path.c_str());
}

TEST(BehaviorDb, LoadMissingFileReturnsFalse)
{
    exp::BehaviorDb db;
    EXPECT_FALSE(db.load("/nonexistent/behaviors.csv"));
}

TEST(BehaviorDb, CommittedDbsLoadAndSaveByteForByte)
{
    // The strict row parser must accept every committed DB whole,
    // the latency columns included, and lose nothing on the way.
    for (const char *name : {"phase1_behaviors.csv",
                             "phase1_behaviors.csv.ppareto",
                             "phase1_behaviors.csv.pflashcrowd."
                             "slop99_500ms"}) {
        SCOPED_TRACE(name);
        const std::string committed =
            std::string(PERFORMA_SOURCE_DIR) + "/results/" + name;
        const std::string want = slurp(committed);
        const std::string prefix = "# fingerprint: ";
        ASSERT_EQ(want.rfind(prefix, 0), 0u);
        exp::BehaviorDb db;
        db.setFingerprint(
            want.substr(prefix.size(), want.find('\n') - prefix.size()));
        ASSERT_TRUE(db.load(committed));
        EXPECT_EQ(db.size(), 55u);
        const std::string tmp = ::testing::TempDir() + "/committed.csv";
        db.save(tmp);
        EXPECT_EQ(slurp(tmp), want);
        std::remove(tmp.c_str());
    }
}

TEST(BehaviorDb, LookupAdapterFetchesRows)
{
    exp::BehaviorDb db;
    model::MeasuredBehavior mb;
    mb.normalTput = 7;
    db.set(press::Version::TcpPress, fault::FaultKind::AppCrash, mb);
    auto lookup = db.lookup();
    EXPECT_DOUBLE_EQ(
        lookup(press::Version::TcpPress, fault::FaultKind::AppCrash)
            .normalTput,
        7);
}

TEST(ServerStats, CountersExplainTheWorkload)
{
    exp::ExperimentConfig cfg;
    cfg.cluster.press.version = press::Version::TcpPress;
    cfg.workload.requestRate = 1200;
    cfg.workload.numFiles = 20000;
    cfg.fault.reset();
    cfg.injectAt = sec(2);
    cfg.duration = sec(30);

    exp::Experiment e(cfg);
    e.warmUp();
    exp::ExperimentResult res = e.injectAndMeasure(std::nullopt);

    std::uint64_t accepted = 0, responses = 0, hits = 0, fwd = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
        const auto &st = e.cluster().server(i).stats();
        accepted += st.accepted;
        responses += st.responses;
        hits += st.localHits;
        fwd += st.forwarded;
        // Dispatch outcomes partition the accepted requests.
        EXPECT_EQ(st.accepted,
                  st.localHits + st.forwarded + st.localMisses);
        EXPECT_EQ(st.refused, 0u);
    }
    // A response at exactly the end tick lands in the next bucket.
    EXPECT_EQ(responses, res.served.total(0, cfg.duration + sec(1)));
    EXPECT_GT(accepted, 0u);
    // Round-robin DNS over a striped cache: ~25% local, ~75% forwarded.
    double fwd_rate = double(fwd) / double(hits + fwd);
    EXPECT_NEAR(fwd_rate, 0.75, 0.05);
}
