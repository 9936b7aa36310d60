/**
 * @file
 * Capacity sweep: drive one PRESS version at increasing offered load
 * and print served throughput plus request-level availability — the
 * saturation curve behind "near-peak throughput" in Table 1, with
 * the open-loop ClientFarm and then closed-loop session clients
 * (p50/p99 latency). Each point is one fault-free exp::Experiment
 * whose clients start at 2 s.
 *
 *   $ ./capacity_sweep [version 0-4]
 */

#include <cstdio>

#include "args.hh"
#include "exp/experiment.hh"

using namespace performa;

namespace {

/** A fault-free run of @p v with clients from 2 s to @p duration. */
exp::ExperimentConfig
sweepConfig(press::Version v, std::uint64_t seed, sim::Tick duration)
{
    exp::ExperimentConfig cfg;
    cfg.cluster.press.version = v;
    cfg.workload.numFiles = 60000;
    cfg.seed = seed;
    cfg.injectAt = sim::sec(2);
    cfg.duration = duration;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    press::Version v =
        tableArg(press::allVersions, argc, argv, 1, 0, "[version 0-4]");
    double peak = press::paperThroughput(v);

    std::printf("capacity sweep: %s (paper near-peak %.0f req/s)\n\n",
                press::versionName(v), peak);
    std::printf("open loop (Poisson arrivals, as in the paper):\n");
    std::printf("%10s %10s %14s\n", "offered", "served", "availability");
    for (double frac : {0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25}) {
        exp::ExperimentConfig cfg = sweepConfig(v, 11, sim::sec(50));
        cfg.workload.requestRate = frac * peak;
        exp::ExperimentResult res = exp::runExperiment(cfg);
        std::printf("%7.0f/s %7.0f/s %13.2f%%%s\n",
                    res.offered.meanRate(sim::sec(20), sim::sec(50)),
                    res.served.meanRate(sim::sec(20), sim::sec(50)),
                    100 * res.availability,
                    frac >= 1.0 ? "   (saturated)" : "");
    }

    std::printf("\nclosed loop (session clients, 50 ms think time):\n");
    std::printf("%10s %10s %10s %10s\n", "sessions", "served", "p50",
                "p99");
    for (std::size_t users : {50, 200, 400, 800}) {
        exp::ExperimentConfig cfg = sweepConfig(v, 13, sim::sec(40));
        cfg.profile = *loadgen::profileByName("sessions");
        cfg.profile.sessionCount = users;
        cfg.profile.meanThink = sim::msec(50);
        exp::ExperimentResult res = exp::runExperiment(cfg);
        const sim::LatencyHistogram &total =
            res.latency.cumulative(sim::LatencyStage::Total);
        std::printf("%10zu %7.0f/s %7.2f ms %7.2f ms\n", users,
                    res.served.meanRate(sim::sec(15), sim::sec(40)),
                    total.quantile(0.5) / 1000.0,
                    total.quantile(0.99) / 1000.0);
    }
    std::printf("\n(closed loops self-throttle: latency, not failure "
                "count, absorbs saturation)\n");
    return 0;
}
