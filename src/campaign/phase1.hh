/**
 * @file
 * The phase-1 measurement campaign: every (PRESS version, fault kind)
 * pair of the study, measured as independent fault-injection
 * experiments sharded across worker threads. The performa_campaign
 * CLI, the benches' phase-1 cache and the what-if designer example
 * all measure through ensurePhase1.
 *
 * Determinism contract: each combination's RNG seed is a pure
 * function of (campaign seed, version, cluster size, load scale,
 * profile) — see phase1Seed() — and completed behaviours are merged
 * into the BehaviorDb in key order, so the resulting database (and
 * its saved CSV) is byte-identical for any worker count.
 *
 * Warm-up sharing: the fault kind does NOT participate in the seed,
 * so every fault of one (version, nodes, load, profile) combination
 * sees the same world up to the injection point. The campaign
 * exploits this by running the fault-free warm phase once per
 * combination, snapshotting it (sim/snapshot.hh), and forking each
 * fault run from the snapshot on the same worker strand.
 *
 * Scheduling: each job's Job::units is the number of requests it
 * offers (simulated seconds x offered rate), so the runner starts the
 * most heavily loaded version's strand first. Units never reach a row.
 */

#ifndef PERFORMA_CAMPAIGN_PHASE1_HH
#define PERFORMA_CAMPAIGN_PHASE1_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "exp/behavior_db.hh"
#include "loadgen/load_profile.hh"
#include "net/network.hh"

namespace performa::campaign {

/**
 * Per-combination seed: one per (version, nodes, load, profile) —
 * shared by every fault kind so the whole fault grid can fork from
 * one warmed snapshot. Pure; order-independent. The profile name
 * participates only when it names a non-default shape ("" and
 * "steady" derive the same seed), so the default grid stays
 * byte-identical. The latency SLO never enters the seed: it is pure
 * observation, and the throughput columns of an SLO campaign must
 * match the plain one's.
 */
std::uint64_t phase1Seed(std::uint64_t campaign_seed, press::Version v,
                         std::uint32_t num_nodes = 4,
                         double load_scale = 1.0,
                         const std::string &profile = {});

/** Pack a grid point into a Job::tag (and back from a JobReport). */
std::uint64_t phase1Tag(press::Version v, fault::FaultKind k);
exp::BehaviorDb::Key phase1TagKey(std::uint64_t tag);

/** Job::tag of the shared per-combination warm-up jobs (progress
 *  consumers that map tags back to grid points must skip it). */
inline constexpr std::uint64_t kWarmupJobTag = ~0ull;

/** One phase-1 campaign's parameters. */
struct Phase1Options
{
    /** Worker threads; 0 means PERFORMA_JOBS / hardware threads. */
    unsigned workers = 0;
    /** Root seed every per-job seed is derived from. */
    std::uint64_t campaignSeed = 42;

    /** Grid subset; empty means all five Table 1 versions. */
    std::vector<press::Version> versions;
    /** Grid subset; empty means all Table 2 fault kinds. */
    std::vector<fault::FaultKind> faults;

    /** Optional extra axes (defaults reproduce the paper's testbed). */
    std::uint32_t numNodes = 4;
    double loadScale = 1.0; ///< scales the saturating offered load

    /** Workload shape (default: the paper's flat open-loop load). */
    loadgen::LoadProfileSpec profile;
    /** Score each stage's total response times against this SLO:
     *  adds SLO columns to the behaviours and the P_slo report. */
    std::optional<model::LatencySlo> slo;

    /** Re-measure everything, ignoring cached rows. */
    bool fresh = false;

    /** Streamed per-job progress (serialized; completion order). */
    ProgressFn progress;

    /**
     * Experiment-runner override, for tests: maps a fully-built
     * config (seed already derived) to a measured behaviour, one
     * independent run per grid point. Unset, each version is warmed
     * up once, snapshotted, and every fault job forks from that
     * snapshot, then injects, measures and extracts.
     */
    std::function<model::MeasuredBehavior(const exp::ExperimentConfig &)>
        measureFn;
};

/** One measured grid point's end-of-run intra-cluster NIC counters
 *  (indexed by node id: osim::Node owns the port of its id). */
struct PointNetStats
{
    press::Version version;
    fault::FaultKind kind;
    std::vector<net::PortStats> ports;
};

/** What a phase-1 campaign did. */
struct Phase1Result
{
    std::size_t measured = 0; ///< jobs run and merged
    std::size_t cached = 0;   ///< grid points already in the cache
    std::size_t failed = 0;   ///< jobs that threw; not merged
    std::vector<JobReport> failures;
    double wallSeconds = 0;
    /** Share of worker time spent inside jobs
     *  (CampaignReport::busyFraction); the rest is idle workers. */
    double busyFraction = 0;
    /** Worker threads that ran (CampaignReport::workers): the
     *  requested count, capped at the number of strands. */
    unsigned workers = 0;
    /** NIC counters of each point measured and merged, in grid
     *  order; empty when measureFn is overridden. */
    std::vector<PointNetStats> netStats;

    bool ok() const { return failed == 0; }
};

/**
 * Canonical cache fingerprint for one campaign's options: the seed
 * scheme version plus every axis a cached row's bytes depend on
 * (nodes, load scale, profile, SLO). Stamped into saved caches and
 * checked on load, so a cache written under a different scheme or
 * grid is re-measured instead of silently merged.
 */
std::string phase1Fingerprint(const Phase1Options &opts);

/** The experiment config for one grid point, combination seed applied. */
exp::ExperimentConfig phase1Config(press::Version v, fault::FaultKind k,
                                   const Phase1Options &opts);

/**
 * The fault-free warm-up config for one combination: the common
 * prefix of every fault's phase1Config (same seed, same world, no
 * fault), sized to the longest fault's run so one snapshot serves the
 * whole grid.
 */
exp::ExperimentConfig
phase1WarmConfig(press::Version v,
                 const std::vector<fault::FaultKind> &faults,
                 const Phase1Options &opts = {});

/** The phase-1 cache path when none is given: $PERFORMA_PHASE1_CACHE,
 *  else performa_phase1.csv in the working directory. */
std::string defaultCachePath();

/**
 * Ensure @p db holds a behaviour for every grid point: load
 * @p cache_path when it exists, measure the missing points in
 * parallel, merge them in deterministic key order, and atomically
 * rewrite the cache. An empty @p cache_path disables caching.
 */
Phase1Result ensurePhase1(exp::BehaviorDb &db,
                          const std::string &cache_path,
                          const Phase1Options &opts = {});

} // namespace performa::campaign

#endif // PERFORMA_CAMPAIGN_PHASE1_HH
