/**
 * @file
 * The behaviour-contract matrix: for every (PRESS version, fault)
 * pair, run a scaled-down fault-injection experiment and check the
 * qualitative outcome the paper reports in Section 5 —
 *
 *   - was the fault detected by the service (exclusion / fail-fast)?
 *   - did the service heal by itself, or does it stay degraded or
 *     splintered until an operator steps in?
 *
 * Scale note: faults last 30 s here (vs. their 3-minute MTTRs in the
 * canonical experiments) to keep the suite fast. The one behaviour
 * that is genuinely duration-dependent is the TCP-PRESS node-crash
 * rejoin race, which needs the retransmission backoff to outlast the
 * rejoin window; that row uses a 120 s crash like the real
 * experiment. The TCP connection-abort path (switch faults outliving
 * the 15-minute abort timeout) is exercised separately in
 * test_press_server.cc and by bench_fig2/4 at full scale.
 */

#include <gtest/gtest.h>

#include <string>

#include "exp/stages.hh"

using namespace performa;
using namespace performa::sim;
using fault::FaultKind;
using press::Version;

namespace {

struct Expectation
{
    FaultKind kind;
    bool detected;
    bool healed;
};

struct MatrixRow
{
    Version version;
    std::vector<Expectation> expectations;
};

exp::ExperimentConfig
matrixConfig(Version v, FaultKind k)
{
    exp::ExperimentConfig cfg;
    cfg.cluster.press.version = v;
    cfg.workload.requestRate = 1500;
    cfg.workload.numFiles = 20000;
    cfg.injectAt = sec(20);
    fault::FaultSpec spec;
    spec.kind = k;
    spec.target = 3;
    spec.duration =
        k == FaultKind::NodeCrash ? sec(120) : sec(30);
    cfg.fault = spec;
    cfg.duration = cfg.injectAt + spec.duration + sec(150);
    return cfg;
}

std::vector<Expectation>
tcpPressExpectations()
{
    return {
        {FaultKind::LinkDown, false, true},   // stall, resume
        {FaultKind::SwitchDown, false, true}, // stall < abort timeout
        {FaultKind::NodeCrash, true, false},  // rejoin race -> 3+1
        {FaultKind::NodeFreeze, false, true}, // correct "no fault"
        {FaultKind::KernelMemAlloc, false, true}, // freeze, resume
        {FaultKind::PinExhaustion, false, true},  // immune
        {FaultKind::AppCrash, true, true},    // RST -> exclude -> rejoin
        {FaultKind::AppHang, false, true},    // stall, resume
        {FaultKind::BadParamNull, true, true},    // EFAULT fail-fast
        {FaultKind::BadParamOffPtr, true, true},  // desync fail-fast
        {FaultKind::BadParamOffSize, true, true},
    };
}

std::vector<Expectation>
tcpPressHbExpectations()
{
    return {
        {FaultKind::LinkDown, true, false},   // splinter, no re-merge
        {FaultKind::SwitchDown, true, false}, // all singletons
        {FaultKind::NodeCrash, true, true},   // HB detect, clean rejoin
        {FaultKind::NodeFreeze, true, false}, // false positive splinter
        {FaultKind::KernelMemAlloc, true, false}, // HBs blocked -> 3+1
        {FaultKind::PinExhaustion, false, true},  // immune
        {FaultKind::AppCrash, true, true},
        {FaultKind::AppHang, true, false},    // false positive splinter
        {FaultKind::BadParamNull, true, true},
        {FaultKind::BadParamOffPtr, true, true},
        {FaultKind::BadParamOffSize, true, true},
    };
}

std::vector<Expectation>
viaExpectations()
{
    return {
        {FaultKind::LinkDown, true, false},   // instant break, 3+1
        {FaultKind::SwitchDown, true, false}, // singletons
        {FaultKind::NodeCrash, true, true},   // instant detect, rejoin
        {FaultKind::NodeFreeze, false, true}, // NIC acks; stall+resume
        {FaultKind::KernelMemAlloc, false, true}, // pre-allocated
        {FaultKind::PinExhaustion, false, true},  // VIA-5: degrade+heal
        {FaultKind::AppCrash, true, true},
        {FaultKind::AppHang, false, true},    // credits stall; resume
        {FaultKind::BadParamNull, true, true},
        {FaultKind::BadParamOffPtr, true, true},
        {FaultKind::BadParamOffSize, true, true},
    };
}

MatrixRow
rowFor(Version v)
{
    switch (v) {
      case Version::TcpPress:
        return {v, tcpPressExpectations()};
      case Version::TcpPressHb:
        return {v, tcpPressHbExpectations()};
      default:
        return {v, viaExpectations()};
    }
}

} // namespace

class FaultMatrix : public ::testing::TestWithParam<Version>
{};

TEST_P(FaultMatrix, SectionFiveContractHolds)
{
    MatrixRow row = rowFor(GetParam());
    for (const auto &e : row.expectations) {
        exp::ExperimentConfig cfg = matrixConfig(row.version, e.kind);
        exp::ExperimentResult res = exp::runExperiment(cfg);
        model::MeasuredBehavior mb =
            exp::extractBehavior(res, *cfg.fault);
        std::string ctx = std::string(press::versionName(row.version)) +
                          " under " + fault::faultName(e.kind);
        EXPECT_EQ(mb.detected, e.detected) << ctx;
        EXPECT_EQ(mb.healed, e.healed) << ctx;
        // Healed must agree with the cluster's structural state.
        if (e.healed) {
            EXPECT_FALSE(res.endSplintered) << ctx;
        }
        // Normal throughput is sane in every run.
        EXPECT_GT(mb.normalTput, 1200) << ctx;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllVersions, FaultMatrix,
    ::testing::ValuesIn(std::vector<Version>(
        std::begin(press::allVersions), std::end(press::allVersions))),
    [](const ::testing::TestParamInfo<Version> &info) {
        std::string n = press::versionName(info.param);
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

/**
 * Quantitative spot checks on the two headline dynamics: detection
 * latency of the heartbeat protocol and the instant detection of VIA
 * connection breaks.
 */
TEST(FaultMatrixTiming, HeartbeatDetectionNearThreePeriods)
{
    exp::ExperimentConfig cfg =
        matrixConfig(Version::TcpPressHb, FaultKind::LinkDown);
    exp::ExperimentResult res = exp::runExperiment(cfg);
    model::MeasuredBehavior mb = exp::extractBehavior(res, *cfg.fault);
    ASSERT_TRUE(mb.detected);
    // 3 heartbeats at 5 s: detection within [10, 21] seconds.
    EXPECT_GE(mb.dur[model::StageA], 10.0);
    EXPECT_LE(mb.dur[model::StageA], 21.0);
}

TEST(FaultMatrixTiming, ViaDetectionSubSecond)
{
    exp::ExperimentConfig cfg =
        matrixConfig(Version::ViaPress0, FaultKind::LinkDown);
    exp::ExperimentResult res = exp::runExperiment(cfg);
    model::MeasuredBehavior mb = exp::extractBehavior(res, *cfg.fault);
    ASSERT_TRUE(mb.detected);
    EXPECT_LT(mb.dur[model::StageA], 1.0);
}

TEST(FaultMatrixTiming, RdmaBadParamKillsTwoNodes)
{
    exp::ExperimentConfig cfg =
        matrixConfig(Version::ViaPress5, FaultKind::BadParamNull);
    exp::ExperimentResult res = exp::runExperiment(cfg);
    EXPECT_EQ(res.markers.count(press::MarkerKind::FailFast), 2u);
    exp::ExperimentConfig cfg0 =
        matrixConfig(Version::ViaPress0, FaultKind::BadParamNull);
    exp::ExperimentResult res0 = exp::runExperiment(cfg0);
    EXPECT_EQ(res0.markers.count(press::MarkerKind::FailFast), 1u);
}
