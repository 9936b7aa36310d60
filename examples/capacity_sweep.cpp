/**
 * @file
 * Capacity sweep: drive one PRESS version at increasing offered load
 * and print served throughput plus request-level availability — the
 * saturation curve behind "near-peak throughput" in Table 1, and a
 * template for using the load generators standalone: the open-loop
 * ClientFarm, then closed-loop session clients with p50/p99 latency.
 *
 *   $ ./capacity_sweep [version 0-4]
 */

#include <cstdio>
#include <cstdlib>

#include "press/cluster.hh"
#include "sim/simulation.hh"
#include "loadgen/client_farm.hh"
#include "loadgen/generator.hh"
#include "loadgen/load_profile.hh"

using namespace performa;

namespace {

struct Point
{
    double offered;
    double served;
    double availability;
};

Point
measure(press::Version v, double rate)
{
    sim::Simulation sim(11);
    press::ClusterConfig ccfg;
    ccfg.press.version = v;
    press::Cluster cluster(sim, ccfg);

    loadgen::WorkloadConfig wcfg;
    wcfg.requestRate = rate;
    wcfg.numFiles = 60000;
    loadgen::ClientFarm farm(sim, cluster.clientNet(),
                             cluster.serverClientPorts(),
                             cluster.clientMachinePorts(), wcfg);

    cluster.startAll();
    sim.runUntil(sim::sec(2));
    cluster.prewarm(wcfg.numFiles);
    farm.start();
    sim.runUntil(sim::sec(50));

    Point p;
    p.offered = farm.offered().meanRate(sim::sec(20), sim::sec(50));
    p.served = farm.served().meanRate(sim::sec(20), sim::sec(50));
    p.availability =
        farm.totalOffered()
            ? static_cast<double>(farm.totalServed()) /
                  static_cast<double>(farm.totalOffered())
            : 0.0;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    int vi = argc > 1 ? std::atoi(argv[1]) : 0;
    press::Version v = press::allVersions[vi % 5];
    double peak = press::paperThroughput(v);

    std::printf("capacity sweep: %s (paper near-peak %.0f req/s)\n\n",
                press::versionName(v), peak);
    std::printf("open loop (Poisson arrivals, as in the paper):\n");
    std::printf("%10s %10s %14s\n", "offered", "served", "availability");
    for (double frac : {0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25}) {
        Point p = measure(v, frac * peak);
        std::printf("%7.0f/s %7.0f/s %13.2f%%%s\n", p.offered, p.served,
                    100 * p.availability,
                    frac >= 1.0 ? "   (saturated)" : "");
    }

    std::printf("\nclosed loop (session clients, 50 ms think time):\n");
    std::printf("%10s %10s %10s %10s\n", "sessions", "served", "p50",
                "p99");
    for (std::size_t users : {50, 200, 400, 800}) {
        sim::Simulation sim(13);
        press::ClusterConfig ccfg;
        ccfg.press.version = v;
        press::Cluster cluster(sim, ccfg);
        loadgen::WorkloadConfig wcfg;
        wcfg.numFiles = 60000;
        loadgen::LoadProfileSpec profile =
            *loadgen::profileByName("sessions");
        profile.sessionCount = users;
        profile.meanThink = sim::msec(50);
        auto farm = loadgen::makeLoadGenerator(
            sim, cluster.clientNet(), cluster.serverClientPorts(),
            cluster.clientMachinePorts(), wcfg, profile);
        cluster.startAll();
        sim.runUntil(sim::sec(2));
        cluster.prewarm(wcfg.numFiles);
        farm->start();
        sim.runUntil(sim::sec(40));
        const sim::LatencyHistogram &total =
            farm->timeline().cumulative(sim::LatencyStage::Total);
        std::printf("%10zu %7.0f/s %7.2f ms %7.2f ms\n", users,
                    farm->served().meanRate(sim::sec(15), sim::sec(40)),
                    total.quantile(0.5) / 1000.0,
                    total.quantile(0.99) / 1000.0);
    }
    std::printf("\n(closed loops self-throttle: latency, not failure "
                "count, absorbs saturation)\n");
    return 0;
}
