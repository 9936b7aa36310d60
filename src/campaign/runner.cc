#include "campaign/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

namespace performa::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

unsigned
defaultWorkerCount()
{
    if (const char *env = std::getenv("PERFORMA_JOBS")) {
        char *end = nullptr;
        long n = std::strtol(env, &end, 10);
        if (end && *end == '\0' && n > 0)
            return static_cast<unsigned>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

CampaignReport
runCampaign(const std::vector<Job> &jobs, const RunnerConfig &cfg)
{
    CampaignReport report;
    report.jobs.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        report.jobs[i].index = i;
        report.jobs[i].label = jobs[i].label;
        report.jobs[i].tag = jobs[i].tag;
    }
    if (jobs.empty())
        return report;

    Clock::time_point t0 = Clock::now();
    // Results land in per-job slots; `state_mu` only guards the
    // shared progress counters and the callback, so job execution
    // itself runs lock-free and in parallel.
    std::mutex state_mu;
    std::size_t done = 0;
    double units_done = 0;

    double units_total = 0;
    for (const Job &j : jobs)
        units_total += j.units;

    // Execution groups: each strand becomes one sequential group (its
    // jobs run in submission order on a single worker); strandless
    // jobs are their own singleton groups.
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::string, std::size_t> strandGroup;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].strand.empty()) {
            groups.push_back({i});
            continue;
        }
        auto [it, fresh] =
            strandGroup.try_emplace(jobs[i].strand, groups.size());
        if (fresh)
            groups.push_back({i});
        else
            groups[it->second].push_back(i);
    }

    // Longest predicted work first (Graham's LPT rule): the group with
    // the largest sum of units is dispatched first, so the longest
    // strand does not start last and run on while the other workers
    // idle. stable_sort keeps ties in submission order.
    std::vector<double> groupUnits(groups.size(), 0.0);
    for (std::size_t g = 0; g < groups.size(); ++g)
        for (std::size_t i : groups[g])
            groupUnits[g] += jobs[i].units;
    std::vector<std::size_t> order(groups.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return groupUnits[a] > groupUnits[b];
                     });

    auto runJob = [&](std::size_t i) {
        const Job &job = jobs[i];
        JobReport &jr = report.jobs[i];
        Clock::time_point js = Clock::now();
        try {
            if (job.work)
                job.work(job);
            jr.ok = true;
        } catch (const std::exception &e) {
            jr.ok = false;
            jr.error = e.what();
        } catch (...) {
            jr.ok = false;
            jr.error = "unknown exception";
        }
        jr.wallSeconds = secondsSince(js);

        std::lock_guard<std::mutex> lk(state_mu);
        ++done;
        report.busySeconds += jr.wallSeconds;
        units_done += job.units;
        if (!jr.ok)
            ++report.failed;
        if (cfg.progress) {
            Progress p;
            p.done = done;
            p.total = jobs.size();
            p.elapsedSeconds = secondsSince(t0);
            p.etaSeconds = units_done > 0
                               ? p.elapsedSeconds / units_done *
                                     (units_total - units_done)
                               : 0.0;
            p.last = &jr;
            cfg.progress(p);
        }
    };

    // Each worker claims the next group in dispatch order until none
    // is left, and runs the group's jobs in order. A worker beyond the
    // group count would never get work.
    unsigned workers = cfg.workers ? cfg.workers : defaultWorkerCount();
    report.workers = static_cast<unsigned>(
        std::min<std::size_t>(workers, groups.size()));
    std::atomic<std::size_t> next{0};
    {
        // jthreads join when the block ends, also if starting one throws.
        std::vector<std::jthread> threads;
        threads.reserve(report.workers);
        for (unsigned w = 0; w < report.workers; ++w)
            threads.emplace_back([&] {
                for (std::size_t k = next++; k < order.size(); k = next++)
                    for (std::size_t i : groups[order[k]])
                        runJob(i);
            });
    }

    report.wallSeconds = secondsSince(t0);
    return report;
}

} // namespace performa::campaign
