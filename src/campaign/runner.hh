/**
 * @file
 * The campaign runner: runs a vector of independent, deterministic
 * jobs on a few plain threads, captures per-job failures without
 * killing the campaign, and streams structured progress (done/total,
 * elapsed, ETA, per-job wall time) through a serialized callback.
 *
 * Scheduling: jobs are grouped into execution groups (one per strand,
 * one per strandless job), and groups are dispatched largest predicted
 * cost first — the sum of their jobs' units, ties in submission order
 * (Graham's LPT rule) — so the longest strand starts early instead of
 * running alone at the end. Each worker thread claims the next group
 * in that order through one atomic cursor and runs its jobs in order;
 * the runner joins every worker before it returns.
 *
 * Determinism contract: a job's observable result may depend only on
 * its own inputs (label, seed, captured state) — never on worker
 * count, submission order, dispatch order, or completion order. The
 * runner enforces the frame for this (per-job seeds, indexed result
 * slots); the phase-1 grid driver (phase1.hh) supplies seeds that are
 * pure functions of (campaign seed, job identity).
 */

#ifndef PERFORMA_CAMPAIGN_RUNNER_HH
#define PERFORMA_CAMPAIGN_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace performa::campaign {

/** One unit of campaign work. */
struct Job
{
    /** Human-readable identity, e.g. "TCP x link-down". */
    std::string label;
    /**
     * The job's RNG seed — derived by the campaign author from the
     * campaign seed and the job's identity (sim::deriveSeed), never from
     * its position in the queue.
     */
    std::uint64_t seed = 0;
    /** Opaque caller identity, echoed back in the JobReport. */
    std::uint64_t tag = 0;
    /**
     * Sequencing key: jobs sharing a non-empty strand form one
     * execution group and run sequentially, in submission order, on
     * one worker — e.g. a warm-up job followed by the fault runs
     * forked from its snapshot. Jobs with an empty strand are groups
     * of their own.
     */
    std::string strand;
    /**
     * Predicted cost, in any unit proportional to host time. Groups
     * are dispatched by descending sum of units, and the progress ETA
     * is computed over units. A shared warm-up job carries its own
     * (one-off) cost, so the ETA does not count the warm-up once per
     * fault. Must be deterministic: it decides dispatch order, which
     * must never reach a job's result.
     */
    double units = 1.0;
    /** The work. May throw; the runner records, the campaign lives. */
    std::function<void(const Job &)> work;
};

/** What happened to one job. */
struct JobReport
{
    std::size_t index = 0;  ///< position in the submitted job vector
    std::string label;
    std::uint64_t tag = 0;  ///< copied from the Job
    bool ok = false;
    std::string error;      ///< exception message when !ok
    double wallSeconds = 0; ///< wall-clock time inside work()
};

/** A progress snapshot, delivered once per completed job. */
struct Progress
{
    std::size_t done = 0;   ///< jobs finished (ok or failed)
    std::size_t total = 0;
    double elapsedSeconds = 0;
    /** Remaining-work estimate over Job::units (a shared warm-up
     *  counts once, not once per dependent fault job):
     *  elapsed / units done * units left. */
    double etaSeconds = 0;
    /** The job that just finished. */
    const JobReport *last = nullptr;
};

using ProgressFn = std::function<void(const Progress &)>;

struct RunnerConfig
{
    /** Worker threads; 0 means defaultWorkerCount(). Capped at the
     *  number of execution groups. */
    unsigned workers = 0;
    /**
     * Invoked after each job completes. Calls are serialized (one at
     * a time) but arrive in completion order, which varies with
     * worker count — don't let output depend on it.
     */
    ProgressFn progress;
};

/** Everything a campaign run produces. */
struct CampaignReport
{
    /** One report per submitted job, in submission order. */
    std::vector<JobReport> jobs;
    std::size_t failed = 0;
    double wallSeconds = 0;
    /** Worker threads that ran: the configured count, capped at the
     *  number of execution groups. */
    unsigned workers = 0;
    /** Sum of every job's wall time. */
    double busySeconds = 0;

    /** Share of worker time spent inside jobs:
     *  busySeconds / (workers * wallSeconds); 0 for an empty run. */
    double busyFraction() const
    {
        return workers && wallSeconds > 0
                   ? busySeconds / (workers * wallSeconds)
                   : 0.0;
    }
};

/**
 * Worker count to use when the caller didn't pick one: the
 * PERFORMA_JOBS environment variable when set to a positive integer,
 * otherwise std::thread::hardware_concurrency() (minimum 1).
 */
unsigned defaultWorkerCount();

/**
 * Run every job to completion and return the per-job reports.
 * Blocking; thread-safe for concurrent campaigns.
 */
CampaignReport runCampaign(const std::vector<Job> &jobs,
                           const RunnerConfig &cfg = {});

} // namespace performa::campaign

#endif // PERFORMA_CAMPAIGN_RUNNER_HH
