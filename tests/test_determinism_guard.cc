/**
 * @file
 * Determinism guard: re-measures one grid point of the committed
 * phase-1 behaviour database with the default workload and checks the
 * freshly serialized CSV row is byte-identical to the committed one.
 *
 * This pins down the contract the loadgen subsystem must honour: with
 * the default (steady) profile linked in, the generators draw from the
 * simulation RNG in the historical order, the seeds derive to the
 * historical values, and the CSV serialization stays stable. Any
 * accidental perturbation — an extra RNG draw, a profile leaking into
 * the default path, a changed float format — shows up here as a one
 * byte diff instead of as a silently invalidated results/ directory.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/phase1.hh"
#include "exp/behavior_db.hh"
#include "exp/experiment.hh"
#include "exp/stages.hh"

using namespace performa;

namespace {

/** First line of @p path starting with @p prefix, or empty. */
std::string
findRow(const std::string &path, const std::string &prefix)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(prefix, 0) == 0)
            return line;
    return {};
}

} // namespace

TEST(DeterminismGuard, DefaultWorkloadReproducesTheCommittedRow)
{
    const std::string committed = std::string(PERFORMA_SOURCE_DIR) +
                                  "/results/phase1_behaviors.csv";
    // (version=0, fault=6) = (TcpPress, AppCrash): a cheap grid point
    // with detection, healing, and a non-trivial stage profile.
    const std::string want = findRow(committed, "0,6,");
    ASSERT_FALSE(want.empty())
        << "committed behaviour DB lost its (TcpPress, AppCrash) row";

    campaign::Phase1Options opts; // all defaults: steady profile, no SLO
    exp::ExperimentConfig cfg = campaign::phase1Config(
        press::Version::TcpPress, fault::FaultKind::AppCrash, opts);
    exp::ExperimentResult res = exp::runExperiment(cfg);
    model::MeasuredBehavior mb = exp::extractBehavior(res, *cfg.fault);

    exp::BehaviorDb db;
    db.set(press::Version::TcpPress, fault::FaultKind::AppCrash, mb);
    const std::string tmp = ::testing::TempDir() + "/guard_row.csv";
    db.save(tmp);
    const std::string got = findRow(tmp, "0,6,");
    std::remove(tmp.c_str());

    EXPECT_EQ(got, want)
        << "default-workload behaviour drifted from the committed DB;\n"
        << "if the change is intentional, regenerate results/ and "
        << "explain why in the commit message";
}

TEST(DeterminismGuard, ForkPathReproducesTheCommittedRow)
{
    // The committed database is produced by the campaign's
    // warm-once/fork-per-fault pipeline; this re-measures the same
    // grid point through ensurePhase1 itself (the warm-up job on its
    // strand, the snapshot, the fork and the release) and pins the
    // row to the committed bytes.
    const std::string committed = std::string(PERFORMA_SOURCE_DIR) +
                                  "/results/phase1_behaviors.csv";
    const std::string want = findRow(committed, "0,6,");
    ASSERT_FALSE(want.empty())
        << "committed behaviour DB lost its (TcpPress, AppCrash) row";

    campaign::Phase1Options opts;
    opts.fresh = true;
    opts.versions = {press::Version::TcpPress};
    opts.faults = {fault::FaultKind::AppCrash};
    const std::string tmp = ::testing::TempDir() + "/guard_fork_row.csv";
    exp::BehaviorDb db;
    campaign::Phase1Result res = campaign::ensurePhase1(db, tmp, opts);
    const std::string got = findRow(tmp, "0,6,");
    std::remove(tmp.c_str());

    EXPECT_EQ(res.measured, 1u);
    EXPECT_EQ(got, want)
        << "fork-path behaviour drifted from the committed DB — the "
        << "snapshot restore is no longer faithful to a fresh warm-up";
}
