/**
 * @file
 * Tests for the campaign subsystem: the runner's dispatch, thread cap
 * and exception capture, deterministic per-job seeding, and the
 * phase-1 grid campaign's worker-count-independent results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "campaign/phase1.hh"
#include "campaign/runner.hh"
#include "exp/stages.hh"
#include "sim/random.hh"

using namespace performa;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

/** A deterministic fake behaviour derived purely from the job seed. */
model::MeasuredBehavior
fakeBehavior(std::uint64_t seed)
{
    model::MeasuredBehavior mb;
    std::uint64_t h = seed;
    auto next = [&h] {
        h = sim::mix64(h);
        return double(h % 100000) / 7.0;
    };
    mb.normalTput = next();
    mb.detected = (sim::mix64(h) & 1) != 0;
    mb.healed = (sim::mix64(h) & 2) != 0;
    for (int s = 0; s < model::numStages; ++s) {
        mb.tput[static_cast<std::size_t>(s)] = next();
        mb.dur[static_cast<std::size_t>(s)] = next();
    }
    return mb;
}

/** Full default grid as ensurePhase1 builds it. */
std::vector<exp::BehaviorDb::Key>
fullGrid()
{
    std::vector<exp::BehaviorDb::Key> grid;
    for (press::Version v : press::allVersions)
        for (fault::FaultKind k : fault::allFaultKinds)
            grid.push_back({v, k});
    return grid;
}

} // namespace

TEST(Runner, ThrowingJobIsReportedOthersComplete)
{
    std::atomic<int> ran{0};
    std::vector<campaign::Job> jobs;
    for (int i = 0; i < 8; ++i) {
        campaign::Job j;
        j.label = "job" + std::to_string(i);
        j.work = [i, &ran](const campaign::Job &) {
            if (i == 3)
                throw std::runtime_error("deliberate failure");
            ++ran;
        };
        jobs.push_back(std::move(j));
    }
    campaign::RunnerConfig rc;
    rc.workers = 4;
    campaign::CampaignReport rep = campaign::runCampaign(jobs, rc);
    EXPECT_EQ(rep.failed, 1u);
    EXPECT_EQ(ran.load(), 7);
    EXPECT_FALSE(rep.jobs[3].ok);
    EXPECT_EQ(rep.jobs[3].error, "deliberate failure");
    for (int i = 0; i < 8; ++i) {
        if (i != 3) {
            EXPECT_TRUE(rep.jobs[static_cast<std::size_t>(i)].ok);
        }
    }
}

TEST(Runner, ProgressStreamsDoneTotalAndLabels)
{
    std::vector<campaign::Job> jobs(5);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].label = "j" + std::to_string(i);
        jobs[i].work = [](const campaign::Job &) {};
    }
    std::vector<std::size_t> dones;
    std::vector<std::string> labels;
    campaign::RunnerConfig rc;
    rc.workers = 2;
    rc.progress = [&](const campaign::Progress &p) {
        dones.push_back(p.done);
        labels.push_back(p.last->label);
        EXPECT_EQ(p.total, 5u);
    };
    campaign::runCampaign(jobs, rc);
    ASSERT_EQ(dones.size(), 5u);
    // Calls are serialized: done counts 1..5 in order.
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(dones[i], i + 1);
    std::sort(labels.begin(), labels.end());
    EXPECT_EQ(labels, (std::vector<std::string>{"j0", "j1", "j2",
                                                "j3", "j4"}));
}

TEST(Runner, DispatchesLargestGroupFirstTiesInSubmissionOrder)
{
    // {label, strand, units}: groups s1 (2 units), c (5), s2 (3),
    // e (2), f (5). One worker runs them in dispatch order.
    struct Spec
    {
        const char *label, *strand;
        double units;
    };
    const Spec specs[] = {{"a", "s1", 1}, {"c", "", 5}, {"d", "s2", 3},
                          {"b", "s1", 1}, {"e", "", 2}, {"f", "", 5}};
    std::vector<std::string> ran;
    std::vector<campaign::Job> jobs;
    for (const Spec &sp : specs) {
        campaign::Job j;
        j.label = sp.label;
        j.strand = sp.strand;
        j.units = sp.units;
        j.work = [&ran](const campaign::Job &self) {
            ran.push_back(self.label);
        };
        jobs.push_back(std::move(j));
    }
    campaign::RunnerConfig rc;
    rc.workers = 1;
    campaign::CampaignReport rep = campaign::runCampaign(jobs, rc);
    // c and f tie at 5 (c submitted first), then s2, then s1 and e
    // tie at 2 (s1 first); a strand keeps its own order.
    EXPECT_EQ(ran, (std::vector<std::string>{"c", "f", "d", "a", "b",
                                             "e"}));
    // Reports stay indexed by submission.
    ASSERT_EQ(rep.jobs.size(), std::size(specs));
    for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
        EXPECT_EQ(rep.jobs[i].index, i);
        EXPECT_EQ(rep.jobs[i].label, specs[i].label);
        EXPECT_TRUE(rep.jobs[i].ok);
    }
    EXPECT_EQ(rep.workers, 1u);
}

TEST(Runner, CapsThePoolAtTheGroupCount)
{
    // Two strandless jobs are two groups: however many workers are
    // asked for, the runner adds two threads to the process (counted
    // against the threads already there, e.g. a sanitizer's own).
    auto threads = [] {
        std::filesystem::directory_iterator tasks("/proc/self/task");
        return std::distance(begin(tasks), end(tasks));
    };
    const std::ptrdiff_t before = threads();
    std::mutex mu;
    std::ptrdiff_t most = 0;
    std::vector<campaign::Job> jobs(2);
    for (campaign::Job &j : jobs)
        j.work = [&](const campaign::Job &) {
            std::ptrdiff_t n = threads();
            std::lock_guard<std::mutex> lk(mu);
            most = std::max(most, n);
        };
    campaign::RunnerConfig rc;
    rc.workers = 16;
    campaign::CampaignReport rep = campaign::runCampaign(jobs, rc);
    EXPECT_EQ(rep.failed, 0u);
    EXPECT_EQ(rep.workers, 2u);
    EXPECT_GE(most, before + 1);
    EXPECT_LE(most, before + 2);
}

TEST(Runner, BusyFractionIsJobWallOverWorkerWall)
{
    std::vector<campaign::Job> jobs(3);
    for (campaign::Job &j : jobs)
        j.work = [](const campaign::Job &) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        };
    campaign::RunnerConfig rc;
    rc.workers = 1;
    campaign::CampaignReport rep = campaign::runCampaign(jobs, rc);
    double sum = 0;
    for (const campaign::JobReport &r : rep.jobs)
        sum += r.wallSeconds;
    EXPECT_DOUBLE_EQ(rep.busySeconds, sum);
    EXPECT_GT(rep.busyFraction(), 0.5);
    EXPECT_LE(rep.busyFraction(), 1.0);
    EXPECT_EQ(campaign::CampaignReport{}.busyFraction(), 0.0);
}

TEST(Runner, RunsEveryJobOnceAcrossWorkers)
{
    // 64 jobs: eight strands of six jobs interleaved with sixteen
    // singletons, with varied units so dispatch order differs from
    // submission order.
    constexpr std::size_t numJobs = 64, numStrands = 8;
    std::vector<std::atomic<int>> runs(numJobs);
    std::vector<std::vector<std::size_t>> strandRan(numStrands);
    std::vector<std::vector<std::size_t>> strandWant(numStrands);
    std::vector<campaign::Job> jobs(numJobs);
    for (std::size_t i = 0; i < numJobs; ++i) {
        campaign::Job &j = jobs[i];
        j.units = double(i * 7 % 11 + 1);
        bool strandless = i % 4 == 3;
        std::size_t s = i / 4 % numStrands;
        if (!strandless) {
            j.strand = "s" + std::to_string(s);
            strandWant[s].push_back(i);
        }
        // A strand's jobs run one after another on one thread, so its
        // vector needs no lock.
        j.work = [&, i, s, strandless](const campaign::Job &) {
            ++runs[i];
            if (!strandless)
                strandRan[s].push_back(i);
        };
    }
    campaign::RunnerConfig rc;
    rc.workers = 4;
    campaign::CampaignReport rep = campaign::runCampaign(jobs, rc);
    EXPECT_EQ(rep.workers, 4u);
    EXPECT_EQ(rep.failed, 0u);
    for (std::size_t i = 0; i < numJobs; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "job " << i;
        EXPECT_TRUE(rep.jobs[i].ok);
    }
    EXPECT_EQ(strandRan, strandWant);
}

TEST(Runner, DefaultWorkerCountReadsPerformaJobs)
{
    const char *saved = std::getenv("PERFORMA_JOBS");
    std::optional<std::string> restore;
    if (saved)
        restore = saved;
    unsigned hw = std::thread::hardware_concurrency();
    const unsigned fallback = hw ? hw : 1;

    ::setenv("PERFORMA_JOBS", "3", 1);
    EXPECT_EQ(campaign::defaultWorkerCount(), 3u);
    for (const char *bad : {"0", "-2", "4x", ""}) {
        ::setenv("PERFORMA_JOBS", bad, 1);
        EXPECT_EQ(campaign::defaultWorkerCount(), fallback)
            << "PERFORMA_JOBS='" << bad << "'";
    }
    EXPECT_GE(campaign::defaultWorkerCount(), 1u);

    if (restore)
        ::setenv("PERFORMA_JOBS", restore->c_str(), 1);
    else
        ::unsetenv("PERFORMA_JOBS");
}

TEST(Seeds, PureFunctionOfIdentityNotOrder)
{
    auto grid = fullGrid();
    // Canonical seeds, derived in grid order. Since scheme v2 the
    // fault kind does not participate: every fault of a combination
    // shares the seed (and thus the warm-up phase).
    std::map<exp::BehaviorDb::Key, std::uint64_t> canonical;
    for (auto [v, k] : grid)
        canonical[{v, k}] = campaign::phase1Seed(42, v);

    // Re-derive after shuffling the evaluation order: identical.
    std::mt19937 shuffler(7);
    std::shuffle(grid.begin(), grid.end(), shuffler);
    for (auto [v, k] : grid)
        EXPECT_EQ(campaign::phase1Seed(42, v), (canonical[{v, k}]));

    // Distinct seeds per version; identical across a version's faults.
    std::set<std::uint64_t> uniq;
    for (auto &[key, seed] : canonical)
        uniq.insert(seed);
    EXPECT_EQ(uniq.size(), std::size(press::allVersions));

    // Campaign seed, cluster size and load scale all separate seeds.
    press::Version v0 = grid.front().first;
    std::uint64_t base = campaign::phase1Seed(42, v0);
    EXPECT_NE(base, campaign::phase1Seed(43, v0));
    EXPECT_NE(base, campaign::phase1Seed(42, v0, 8));
    EXPECT_NE(base, campaign::phase1Seed(42, v0, 4, 1.25));
    // A named non-default profile separates too; "steady" doesn't.
    EXPECT_NE(base, campaign::phase1Seed(42, v0, 4, 1.0, "flashcrowd"));
    EXPECT_EQ(base, campaign::phase1Seed(42, v0, 4, 1.0, "steady"));
}

TEST(Seeds, StableAcrossShuffledSubmissionOrder)
{
    // Jobs record the seed they actually ran with; shuffling the
    // submission order must not change any job's seed.
    auto grid = fullGrid();
    std::mt19937 shuffler(11);
    std::shuffle(grid.begin(), grid.end(), shuffler);

    std::mutex mu;
    std::map<std::uint64_t, std::uint64_t> seenByTag;
    std::vector<campaign::Job> jobs;
    for (auto [v, k] : grid) {
        campaign::Job j;
        j.label = "x";
        j.seed = campaign::phase1Seed(42, v);
        j.tag = campaign::phase1Tag(v, k);
        j.work = [&mu, &seenByTag](const campaign::Job &self) {
            std::lock_guard<std::mutex> lk(mu);
            seenByTag[self.tag] = self.seed;
        };
        jobs.push_back(std::move(j));
    }
    campaign::RunnerConfig rc;
    rc.workers = 4;
    campaign::runCampaign(jobs, rc);
    ASSERT_EQ(seenByTag.size(), grid.size());
    for (auto &[tag, seed] : seenByTag) {
        auto [v, k] = campaign::phase1TagKey(tag);
        (void)k; // seeds are per-version since scheme v2
        EXPECT_EQ(seed, campaign::phase1Seed(42, v));
    }
}

TEST(Phase1, ParallelRunIsByteIdenticalToSerialRun)
{
    auto runWith = [](unsigned workers, const std::string &path) {
        std::remove(path.c_str());
        exp::BehaviorDb db;
        campaign::Phase1Options opts;
        opts.workers = workers;
        opts.measureFn = [](const exp::ExperimentConfig &cfg) {
            return fakeBehavior(cfg.seed);
        };
        campaign::Phase1Result res =
            campaign::ensurePhase1(db, path, opts);
        EXPECT_EQ(res.failed, 0u);
        EXPECT_EQ(res.measured, fullGrid().size());
        return db;
    };
    std::string p1 = tmpPath("campaign_serial.csv");
    std::string p4 = tmpPath("campaign_parallel.csv");
    runWith(1, p1);
    runWith(4, p4);
    std::string serial = slurp(p1);
    std::string parallel = slurp(p4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel); // byte-identical cache
    std::remove(p1.c_str());
    std::remove(p4.c_str());
}

TEST(Phase1, MostLoadedVersionRunsFirst)
{
    // Jobs are weighed by the requests they offer: VIA-PRESS-5 is
    // offered the most load, so at one worker its longest point (the
    // 1-hour switch-down) is the first to finish.
    campaign::Phase1Options opts;
    opts.workers = 1;
    opts.measureFn = [](const exp::ExperimentConfig &cfg) {
        return fakeBehavior(cfg.seed);
    };
    std::vector<std::string> labels;
    opts.progress = [&labels](const campaign::Progress &p) {
        labels.push_back(p.last->label);
    };
    exp::BehaviorDb db;
    campaign::Phase1Result res = campaign::ensurePhase1(db, "", opts);
    EXPECT_TRUE(res.ok());
    ASSERT_EQ(labels.size(), fullGrid().size());
    EXPECT_EQ(labels.front(),
              std::string(press::versionName(press::Version::ViaPress5)) +
                  " x " + fault::faultName(fault::FaultKind::SwitchDown));
}

TEST(Phase1, CacheIsByteIdenticalForAnyVersionOrderAndWorkerCount)
{
    using press::Version;
    const std::vector<Version> forward = {
        Version::TcpPress, Version::TcpPressHb, Version::ViaPress0,
        Version::ViaPress3, Version::ViaPress5};
    const std::vector<Version> reverse(forward.rbegin(), forward.rend());
    std::vector<std::string> bodies;
    for (const auto &versions : {forward, reverse}) {
        for (unsigned workers : {1u, 4u}) {
            std::string path = tmpPath("campaign_order.csv");
            std::remove(path.c_str());
            campaign::Phase1Options opts;
            opts.workers = workers;
            opts.versions = versions;
            opts.measureFn = [](const exp::ExperimentConfig &cfg) {
                return fakeBehavior(cfg.seed);
            };
            exp::BehaviorDb db;
            EXPECT_TRUE(campaign::ensurePhase1(db, path, opts).ok());
            bodies.push_back(slurp(path));
            std::remove(path.c_str());
        }
    }
    ASSERT_FALSE(bodies.front().empty());
    for (const std::string &b : bodies)
        EXPECT_EQ(b, bodies.front());
}

TEST(Phase1, FailedJobReportedWhileRestOfCampaignCompletes)
{
    exp::BehaviorDb db;
    campaign::Phase1Options opts;
    opts.workers = 4;
    press::Version badV = press::Version::ViaPress3;
    fault::FaultKind badK = fault::FaultKind::NodeCrash;
    opts.measureFn = [badV, badK](const exp::ExperimentConfig &cfg) {
        // The seed no longer identifies the grid point (it is shared
        // across a version's faults), so match on the config itself.
        if (cfg.cluster.press.version == badV &&
            cfg.fault && cfg.fault->kind == badK)
            throw std::runtime_error("simulated job crash");
        return fakeBehavior(cfg.seed);
    };
    campaign::Phase1Result res = campaign::ensurePhase1(db, "", opts);
    EXPECT_EQ(res.failed, 1u);
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.failures.size(), 1u);
    EXPECT_EQ(res.failures[0].error, "simulated job crash");
    EXPECT_EQ(res.failures[0].label,
              std::string(press::versionName(badV)) + " x " +
                  fault::faultName(badK));
    EXPECT_EQ(res.measured, fullGrid().size() - 1);
    EXPECT_FALSE(db.has(badV, badK));
    for (auto [v, k] : fullGrid()) {
        if (!(v == badV && k == badK)) {
            EXPECT_TRUE(db.has(v, k));
        }
    }
}

TEST(Phase1, DuplicateSubsetEntriesAreMeasuredOnce)
{
    campaign::Phase1Options opts;
    opts.workers = 2;
    opts.versions = {press::Version::ViaPress3, press::Version::TcpPress,
                     press::Version::ViaPress3};
    opts.faults = {fault::FaultKind::AppCrash, fault::FaultKind::AppCrash,
                   fault::FaultKind::LinkDown, fault::FaultKind::AppCrash};
    std::mutex mu;
    std::vector<exp::BehaviorDb::Key> calls;
    opts.measureFn = [&](const exp::ExperimentConfig &cfg) {
        std::lock_guard<std::mutex> lock(mu);
        calls.push_back({cfg.cluster.press.version, cfg.fault->kind});
        return fakeBehavior(cfg.seed);
    };
    exp::BehaviorDb db;
    campaign::Phase1Result res = campaign::ensurePhase1(db, "", opts);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.measured, 4u); // 2 distinct versions x 2 faults
    EXPECT_EQ(calls.size(), 4u);
    std::sort(calls.begin(), calls.end());
    EXPECT_EQ(std::adjacent_find(calls.begin(), calls.end()), calls.end());
    EXPECT_EQ(db.size(), 4u);
}

TEST(Phase1, FaultTargetFitsTheClusterSize)
{
    // Node 3 on the paper's 4 nodes and on larger clusters; the
    // highest node of a smaller one. Never node 0, which answers
    // rejoins.
    const std::pair<std::uint32_t, sim::NodeId> want[] = {
        {2, 1}, {3, 2}, {4, 3}, {8, 3}};
    for (auto [nodes, target] : want) {
        campaign::Phase1Options opts;
        opts.numNodes = nodes;
        for (fault::FaultKind k : fault::allFaultKinds) {
            exp::ExperimentConfig cfg =
                campaign::phase1Config(press::Version::TcpPress, k, opts);
            EXPECT_EQ(cfg.cluster.press.numNodes, nodes);
            ASSERT_TRUE(cfg.fault);
            EXPECT_EQ(cfg.fault->target, target)
                << nodes << " nodes, " << fault::faultName(k);
        }
    }
}

TEST(Phase1, SecondRunUsesCacheAndMeasuresNothing)
{
    std::string path = tmpPath("campaign_cache.csv");
    std::remove(path.c_str());
    campaign::Phase1Options opts;
    opts.measureFn = [](const exp::ExperimentConfig &cfg) {
        return fakeBehavior(cfg.seed);
    };
    exp::BehaviorDb first;
    campaign::Phase1Result r1 =
        campaign::ensurePhase1(first, path, opts);
    EXPECT_EQ(r1.measured, fullGrid().size());

    opts.measureFn = [](const exp::ExperimentConfig &) {
        throw std::runtime_error("must not re-measure");
        return model::MeasuredBehavior{};
    };
    exp::BehaviorDb second;
    campaign::Phase1Result r2 =
        campaign::ensurePhase1(second, path, opts);
    EXPECT_EQ(r2.measured, 0u);
    EXPECT_EQ(r2.failed, 0u);
    EXPECT_EQ(r2.cached, fullGrid().size());
    EXPECT_EQ(second.size(), first.size());
    // No temp file left behind by the atomic save.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(Phase1, CacheWithDifferentFingerprintIsRejectedAndRemeasured)
{
    // A cache written for one grid geometry must not satisfy a
    // campaign over another: the fingerprint header names the
    // seed-scheme version and the (nodes, scale, profile, slo) axes,
    // and a mismatch re-measures everything.
    std::string path = tmpPath("campaign_fingerprint.csv");
    std::remove(path.c_str());
    campaign::Phase1Options opts;
    opts.measureFn = [](const exp::ExperimentConfig &cfg) {
        return fakeBehavior(cfg.seed);
    };
    exp::BehaviorDb seeded;
    campaign::ensurePhase1(seeded, path, opts);
    EXPECT_NE(slurp(path).find("# fingerprint: "), std::string::npos);

    campaign::Phase1Options scaled = opts;
    scaled.loadScale = 2.0;
    ASSERT_NE(campaign::phase1Fingerprint(scaled),
              campaign::phase1Fingerprint(opts));
    exp::BehaviorDb db;
    campaign::Phase1Result res =
        campaign::ensurePhase1(db, path, scaled);
    EXPECT_EQ(res.cached, 0u);
    EXPECT_EQ(res.measured, fullGrid().size());

    // The re-save stamped the new fingerprint: a second scaled run is
    // now fully cached.
    exp::BehaviorDb again;
    campaign::Phase1Result r2 =
        campaign::ensurePhase1(again, path, scaled);
    EXPECT_EQ(r2.cached, fullGrid().size());
    EXPECT_EQ(r2.measured, 0u);
    std::remove(path.c_str());
}

TEST(Phase1, LegacyCacheWithoutFingerprintIsRejected)
{
    // Pre-fingerprint cache files (no header comment) predate seed
    // scheme v2 and must be re-measured, not trusted.
    std::string path = tmpPath("campaign_legacy.csv");
    std::remove(path.c_str());
    campaign::Phase1Options opts;
    opts.measureFn = [](const exp::ExperimentConfig &cfg) {
        return fakeBehavior(cfg.seed);
    };
    exp::BehaviorDb seeded;
    campaign::ensurePhase1(seeded, path, opts);

    // Strip the fingerprint line, leaving a valid legacy-format CSV.
    std::string body = slurp(path);
    std::size_t eol = body.find('\n');
    ASSERT_NE(eol, std::string::npos);
    ASSERT_EQ(body.rfind("# fingerprint: ", 0), 0u);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << body.substr(eol + 1);
    }

    exp::BehaviorDb db;
    campaign::Phase1Result res = campaign::ensurePhase1(db, path, opts);
    EXPECT_EQ(res.cached, 0u);
    EXPECT_EQ(res.measured, fullGrid().size());
    std::remove(path.c_str());
}

TEST(Phase1, MalformedCacheRowIsRejectedAndRemeasured)
{
    // A cache file comes from outside the program: one bad row must
    // make the whole file count as absent, never half-load it.
    std::string path = tmpPath("campaign_malformed.csv");
    std::remove(path.c_str());
    campaign::Phase1Options opts;
    opts.measureFn = [](const exp::ExperimentConfig &cfg) {
        return fakeBehavior(cfg.seed);
    };
    exp::BehaviorDb seeded;
    campaign::ensurePhase1(seeded, path, opts);
    std::string good = slurp(path);

    // A well-formed row with field @p i replaced by @p value.
    std::string row = good.substr(good.rfind('\n', good.size() - 2) + 1);
    row.pop_back();
    auto withField = [&row](int i, const std::string &value) {
        std::vector<std::string> fields;
        std::istringstream ss(row);
        for (std::string f; std::getline(ss, f, ',');)
            fields.push_back(f);
        fields[static_cast<std::size_t>(i)] = value;
        std::string out;
        for (const std::string &f : fields)
            out += (out.empty() ? "" : ",") + f;
        return out;
    };
    const std::pair<const char *, std::string> cases[] = {
        {"truncated", "0,6,12"},
        {"non-numeric", withField(2, "abc")},
        {"version 5", withField(0, "5")},
        {"fault 11", withField(1, "11")},
    };
    for (const auto &[what, bad] : cases) {
        SCOPED_TRACE(what);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << good << bad << "\n";
        }
        exp::BehaviorDb db;
        campaign::Phase1Result res = campaign::ensurePhase1(db, path, opts);
        EXPECT_EQ(res.cached, 0u);
        EXPECT_EQ(res.measured, fullGrid().size());
    }
    std::remove(path.c_str());
}

TEST(Phase1, ConcurrentRealSimulationsAreRaceFreeAndDeterministic)
{
    // Real discrete-event simulations on 4 workers: the guard test
    // for shared mutable state across concurrent Simulation
    // instances (run under TSan in CI). Small grid + light load to
    // keep it fast; results must match a serial run byte-for-byte.
    auto runWith = [](unsigned workers, const std::string &path) {
        std::remove(path.c_str());
        exp::BehaviorDb db;
        campaign::Phase1Options opts;
        opts.workers = workers;
        opts.versions = {press::Version::TcpPress,
                         press::Version::ViaPress0};
        opts.faults = {fault::FaultKind::LinkDown,
                       fault::FaultKind::AppCrash};
        opts.measureFn = [](const exp::ExperimentConfig &cfg) {
            exp::ExperimentConfig fast = cfg;
            fast.workload.requestRate = 900;
            fast.workload.numFiles = 20000;
            fast.duration = fast.injectAt + sim::sec(45);
            exp::ExperimentResult res = exp::runExperiment(fast);
            return exp::extractBehavior(res, *fast.fault);
        };
        campaign::Phase1Result res =
            campaign::ensurePhase1(db, path, opts);
        EXPECT_EQ(res.failed, 0u);
        EXPECT_EQ(res.measured, 4u);
    };
    std::string p1 = tmpPath("campaign_real_serial.csv");
    std::string p4 = tmpPath("campaign_real_parallel.csv");
    runWith(1, p1);
    runWith(4, p4);
    std::string serial = slurp(p1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, slurp(p4));
    std::remove(p1.c_str());
    std::remove(p4.c_str());
}
