/**
 * @file
 * Shared plumbing for the reproduction benches: the phase-1 behaviour
 * cache location, per-figure banner printing, and small formatting
 * helpers. Each bench binary regenerates one table or figure of the
 * paper and prints paper-vs-measured rows.
 */

#ifndef PERFORMA_BENCH_COMMON_HH
#define PERFORMA_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "campaign/phase1.hh"
#include "campaign/runner.hh"
#include "exp/behavior_db.hh"
#include "exp/report.hh"
#include "exp/stages.hh"

namespace performa::bench {

/**
 * Load-or-measure the full behaviour database, cached across bench
 * binaries at campaign::defaultCachePath(). Missing grid points
 * are measured in parallel on the campaign's worker threads
 * (--jobs via PERFORMA_JOBS; defaults to the hardware threads) with
 * structured done/total progress. Per-job seeds are scheduling-independent, so
 * the resulting cache is byte-identical for any worker count.
 */
inline exp::BehaviorDb
loadBehaviors()
{
    exp::BehaviorDb db;
    std::string path = campaign::defaultCachePath();
    std::printf("phase-1 behaviours (cache: %s, jobs: %u)\n",
                path.c_str(), campaign::defaultWorkerCount());
    campaign::Phase1Options opts;
    opts.progress = [](const campaign::Progress &p) {
        std::printf("  [%2zu/%2zu] measured %-32s %5.1fs  "
                    "elapsed %.0fs  eta %.0fs\n",
                    p.done, p.total, p.last->label.c_str(),
                    p.last->wallSeconds, p.elapsedSeconds,
                    p.etaSeconds);
        std::fflush(stdout);
    };
    campaign::Phase1Result res = campaign::ensurePhase1(db, path, opts);
    for (const campaign::JobReport &f : res.failures)
        std::printf("  FAILED %s: %s\n", f.label.c_str(),
                    f.error.c_str());
    if (res.saveFailed)
        std::printf("  FAILED writing cache %s\n", path.c_str());
    return db;
}

/**
 * Run the canonical single-fault experiment for (version, fault) and
 * print the throughput timeline plus the extracted 7-stage behaviour
 * — the reproduction of one curve of a Figure 2-5 style plot.
 */
inline void
timeline(press::Version v, fault::FaultKind k, const char *expected)
{
    std::printf("\n--- %s under %s ---\n", press::versionName(v),
                fault::faultName(k));
    std::printf("Paper behaviour: %s\n", expected);
    exp::ExperimentConfig cfg = exp::experimentFor(v, k);
    exp::ExperimentResult res = exp::runExperiment(cfg);
    exp::printSeries(res, sim::sec(40), cfg.duration, sim::sec(10));
    model::MeasuredBehavior mb = exp::extractBehavior(res, *cfg.fault);
    exp::printBehavior(mb);
    std::printf("  end state: %s\n",
                res.endSplintered
                    ? "SPLINTERED - operator reset required"
                    : "single cooperating cluster");
    std::fflush(stdout);
}

inline void
banner(const char *title, const char *paper_says)
{
    std::printf("\n================================================="
                "=====================\n");
    std::printf("%s\n", title);
    std::printf("Paper: %s\n", paper_says);
    std::printf("==================================================="
                "===================\n");
}

} // namespace performa::bench

#endif // PERFORMA_BENCH_COMMON_HH
