#include "campaign/phase1.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "exp/experiment.hh"
#include "exp/stages.hh"
#include "sim/random.hh"

namespace performa::campaign {

namespace {

/** @p subset with repeats dropped (each keeps its first place), or
 *  all of @p all when the subset is empty. */
template <typename T, std::size_t N>
std::vector<T>
subsetOrAll(const std::vector<T> &subset, const T (&all)[N])
{
    if (subset.empty())
        return std::vector<T>(all, all + N);
    std::vector<T> out;
    for (T x : subset)
        if (std::find(out.begin(), out.end(), x) == out.end())
            out.push_back(x);
    return out;
}

} // namespace

std::uint64_t
phase1Seed(std::uint64_t campaign_seed, press::Version v,
           std::uint32_t num_nodes, double load_scale,
           const std::string &profile)
{
    // Version 2 of the derivation: the fault kind no longer
    // participates, so every fault of one (version, nodes, load,
    // profile) combination shares a seed — and therefore a warm-up —
    // and the grid can fork from a single warmed snapshot. The
    // leading component is bumped from the v1 scheme so stale caches
    // can't masquerade as fresh. The default profile contributes
    // nothing, keeping "" and "steady" identical.
    if (profile.empty() || profile == "steady")
        return sim::deriveSeed(campaign_seed,
                               {2ull, static_cast<std::uint64_t>(v),
                                static_cast<std::uint64_t>(num_nodes),
                                sim::seedComponent(load_scale)});
    return sim::deriveSeed(campaign_seed,
                           {2ull, static_cast<std::uint64_t>(v),
                            static_cast<std::uint64_t>(num_nodes),
                            sim::seedComponent(load_scale),
                            sim::seedComponent(profile)});
}

std::uint64_t
phase1Tag(press::Version v, fault::FaultKind k)
{
    return (static_cast<std::uint64_t>(v) << 32) |
           static_cast<std::uint32_t>(k);
}

exp::BehaviorDb::Key
phase1TagKey(std::uint64_t tag)
{
    return {static_cast<press::Version>(tag >> 32),
            static_cast<fault::FaultKind>(tag & 0xffffffffu)};
}

std::string
phase1Fingerprint(const Phase1Options &opts)
{
    // Keep the format append-only: consumers compare the whole string
    // for equality, so any change here (like any seed-scheme bump)
    // deliberately invalidates every existing cache.
    char buf[160];
    if (opts.slo)
        std::snprintf(buf, sizeof buf,
                      "seed-scheme=2 nodes=%u scale=%g profile=%s "
                      "slo=p%g@%lluus",
                      opts.numNodes, opts.loadScale,
                      opts.profile.name.empty()
                          ? "steady"
                          : opts.profile.name.c_str(),
                      opts.slo->quantile * 100.0,
                      static_cast<unsigned long long>(
                          opts.slo->thresholdUs));
    else
        std::snprintf(buf, sizeof buf,
                      "seed-scheme=2 nodes=%u scale=%g profile=%s "
                      "slo=none",
                      opts.numNodes, opts.loadScale,
                      opts.profile.name.empty()
                          ? "steady"
                          : opts.profile.name.c_str());
    return buf;
}

exp::ExperimentConfig
phase1Config(press::Version v, fault::FaultKind k,
             const Phase1Options &opts)
{
    exp::ExperimentConfig cfg = exp::experimentFor(v, k);
    cfg.cluster.press.numNodes = opts.numNodes;
    // Node 3, or the highest node of a smaller cluster: never node 0,
    // which answers rejoins.
    cfg.fault->target = std::min<sim::NodeId>(cfg.fault->target,
                                              opts.numNodes - 1);
    cfg.workload.requestRate *= opts.loadScale;
    cfg.profile = opts.profile;
    cfg.seed = phase1Seed(opts.campaignSeed, v, opts.numNodes,
                          opts.loadScale, opts.profile.name);
    return cfg;
}

exp::ExperimentConfig
phase1WarmConfig(press::Version v,
                 const std::vector<fault::FaultKind> &faults,
                 const Phase1Options &opts)
{
    // Any fault's config works as the base: everything before the
    // injection point (seed, workload, cluster, injectAt) is
    // fault-independent by construction.
    exp::ExperimentConfig cfg =
        phase1Config(v, faults.empty() ? fault::FaultKind::AppCrash
                                       : faults.front(),
                     opts);
    cfg.fault.reset();
    for (fault::FaultKind k : faults) {
        exp::ExperimentConfig c = phase1Config(v, k, opts);
        if (c.duration > cfg.duration)
            cfg.duration = c.duration;
    }
    return cfg;
}

std::string
defaultCachePath()
{
    const char *env = std::getenv("PERFORMA_PHASE1_CACHE");
    return env ? env : "performa_phase1.csv";
}

Phase1Result
ensurePhase1(exp::BehaviorDb &db, const std::string &cache_path,
             const Phase1Options &opts)
{
    std::vector<press::Version> versions =
        subsetOrAll(opts.versions, press::allVersions);
    std::vector<fault::FaultKind> faults =
        subsetOrAll(opts.faults, fault::allFaultKinds);

    Phase1Result result;
    db.setFingerprint(phase1Fingerprint(opts));
    if (!opts.fresh && !cache_path.empty())
        db.load(cache_path);

    std::vector<exp::BehaviorDb::Key> todo;
    for (press::Version v : versions) {
        for (fault::FaultKind k : faults) {
            if (!opts.fresh && db.has(v, k))
                ++result.cached;
            else
                todo.push_back({v, k});
        }
    }
    if (todo.empty())
        return result;

    // Jobs write into slots indexed like `todo`; merging back into
    // the (ordered) BehaviorDb happens after the barrier, in key
    // order, so the database never depends on completion order.
    struct Slot
    {
        model::MeasuredBehavior behavior;
        std::vector<net::PortStats> ports;
    };
    std::vector<Slot> slots(todo.size());

    // A job's predicted cost (Job::units): the requests it offers
    // over @p t simulated time. Every version runs the same simulated
    // durations, but a version offered more load costs more host
    // time, so simulated seconds alone would tie every strand.
    auto requestsOffered = [](const exp::ExperimentConfig &cfg,
                              sim::Tick t) {
        return static_cast<double>(t) /
               static_cast<double>(sim::sec(1)) *
               cfg.workload.requestRate;
    };

    std::vector<Job> jobs;
    // jobSlot[j] maps a job index to its `todo` slot; warm-up jobs
    // (which produce no behaviour of their own) map to -1.
    std::vector<std::ptrdiff_t> jobSlot;

    // Per-combination warm state, shared between the warm-up job and
    // its fault jobs via stable references (deque never reallocates
    // existing elements). The last fault job of a combination frees
    // the snapshot so peak memory stays at O(workers) worlds.
    struct WarmState
    {
        std::unique_ptr<exp::Experiment> exp;
        sim::Snapshot snap;
        std::size_t remaining = 0;
    };
    std::deque<WarmState> warm;

    if (opts.measureFn) {
        // Runner override: no shared warm-up (the override owns the
        // whole measurement), so every grid point stays independent.
        jobs.reserve(todo.size());
        for (std::size_t i = 0; i < todo.size(); ++i) {
            auto [v, k] = todo[i];
            exp::ExperimentConfig cfg = phase1Config(v, k, opts);
            Job job;
            job.label = std::string(press::versionName(v)) + " x " +
                        fault::faultName(k);
            job.seed = cfg.seed;
            job.tag = phase1Tag(v, k);
            job.units = requestsOffered(cfg, cfg.duration);
            job.work = [&slots, i, cfg, &opts](const Job &) {
                slots[i].behavior = opts.measureFn(cfg);
            };
            jobs.push_back(std::move(job));
            jobSlot.push_back(static_cast<std::ptrdiff_t>(i));
        }
    } else {
        // Fork path: one warm-up job per combination, then its fault
        // jobs on the same strand (sequential, in submission order,
        // sharing the warmed snapshot).
        for (press::Version v : versions) {
            std::vector<std::size_t> mine;
            std::vector<fault::FaultKind> mineFaults;
            for (std::size_t i = 0; i < todo.size(); ++i) {
                if (todo[i].first == v) {
                    mine.push_back(i);
                    mineFaults.push_back(todo[i].second);
                }
            }
            if (mine.empty())
                continue;

            exp::ExperimentConfig warmCfg =
                phase1WarmConfig(v, mineFaults, opts);
            std::string strand =
                "phase1/" + std::string(press::versionName(v));
            warm.emplace_back();
            WarmState &ws = warm.back();
            ws.remaining = mine.size();

            Job wj;
            wj.label =
                std::string(press::versionName(v)) + " warm-up";
            wj.seed = warmCfg.seed;
            wj.tag = kWarmupJobTag;
            wj.strand = strand;
            wj.units = requestsOffered(warmCfg, warmCfg.injectAt);
            wj.work = [&ws, warmCfg](const Job &) {
                ws.exp = std::make_unique<exp::Experiment>(warmCfg);
                ws.exp->warmUp();
                ws.snap = ws.exp->snapshot();
            };
            jobs.push_back(std::move(wj));
            jobSlot.push_back(-1);

            for (std::size_t i : mine) {
                auto [vv, k] = todo[i];
                exp::ExperimentConfig cfg = phase1Config(vv, k, opts);
                Job job;
                job.label = std::string(press::versionName(vv)) +
                            " x " + fault::faultName(k);
                job.seed = cfg.seed;
                job.tag = phase1Tag(vv, k);
                job.strand = strand;
                job.units =
                    requestsOffered(cfg, cfg.duration - cfg.injectAt);
                job.work = [&slots, &ws, i, cfg, &opts](const Job &) {
                    struct Release
                    {
                        WarmState &ws;
                        ~Release()
                        {
                            if (--ws.remaining == 0) {
                                ws.snap = sim::Snapshot{};
                                ws.exp.reset();
                            }
                        }
                    } release{ws};
                    if (!ws.exp || ws.snap.empty())
                        throw std::runtime_error(
                            "warm-up failed; cannot fork");
                    ws.exp->forkFrom(ws.snap);
                    exp::ExperimentResult res =
                        ws.exp->injectAndMeasure(cfg.fault,
                                                 cfg.duration);
                    slots[i].ports = std::move(res.intraPortStats);
                    exp::ExtractionParams p;
                    p.slo = opts.slo;
                    slots[i].behavior =
                        exp::extractBehavior(res, *cfg.fault, p);
                };
                jobs.push_back(std::move(job));
                jobSlot.push_back(static_cast<std::ptrdiff_t>(i));
            }
        }
    }

    RunnerConfig rc;
    rc.workers = opts.workers;
    rc.progress = opts.progress;
    CampaignReport report = runCampaign(jobs, rc);

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        std::ptrdiff_t slot = jobSlot[j];
        if (slot < 0) {
            // Warm-up jobs produce no behaviour; surface a failure
            // report (its fault jobs fail too and count below).
            if (!report.jobs[j].ok)
                result.failures.push_back(report.jobs[j]);
            continue;
        }
        if (report.jobs[j].ok) {
            auto [v, k] = todo[slot];
            db.set(v, k, slots[slot].behavior);
            if (!slots[slot].ports.empty())
                result.netStats.push_back(
                    {v, k, std::move(slots[slot].ports)});
            ++result.measured;
        } else {
            ++result.failed;
            result.failures.push_back(report.jobs[j]);
        }
    }
    result.wallSeconds = report.wallSeconds;
    result.busyFraction = report.busyFraction();
    result.workers = report.workers;

    if (result.measured > 0 && !cache_path.empty())
        result.saveFailed = !db.save(cache_path);
    return result;
}

} // namespace performa::campaign
