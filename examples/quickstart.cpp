/**
 * @file
 * Quickstart: build a 4-node PRESS deployment, drive it with clients,
 * crash a node mid-run, and watch throughput and availability — the
 * smallest end-to-end tour of the performa API.
 *
 *   $ ./quickstart [version 0-4]
 */

#include <cstdio>

#include "args.hh"
#include "faults/injector.hh"
#include "press/cluster.hh"
#include "sim/simulation.hh"
#include "loadgen/client_farm.hh"

using namespace performa;

int
main(int argc, char **argv)
{
    press::Version version =
        tableArg(press::allVersions, argc, argv, 1, 4, "[version 0-4]");
    std::printf("performa quickstart: %s on a simulated 4-node cLAN "
                "cluster\n\n",
                press::versionName(version));

    // 1. One Simulation owns time and randomness for the whole world.
    sim::Simulation sim(/*seed=*/2026);

    // 2. Build the deployment: nodes, networks, stacks, servers.
    press::ClusterConfig cluster_cfg;
    cluster_cfg.press.version = version;
    press::Cluster cluster(sim, cluster_cfg);

    // 3. Attach the client population (Poisson arrivals, Zipf files,
    //    2s/6s timeouts, round-robin DNS).
    loadgen::WorkloadConfig wl_cfg;
    wl_cfg.requestRate = 0.9 * press::paperThroughput(version);
    wl_cfg.numFiles = 60000;
    loadgen::ClientFarm farm(sim, cluster.clientNet(),
                             cluster.serverClientPorts(),
                             cluster.clientMachinePorts(), wl_cfg);

    // 4. Cold-start the servers and pre-warm the cooperative cache.
    cluster.startAll();
    sim.runUntil(sim::sec(2));
    cluster.prewarm(wl_cfg.numFiles);
    farm.start();

    // 5. Schedule a node crash at t=30s, node back 40s later.
    fault::Injector injector(sim, cluster);
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::NodeCrash;
    crash.target = 3;
    crash.injectAt = sim::sec(30);
    crash.duration = sim::sec(40);
    injector.schedule(crash);

    // 6. Run and report per-5s throughput.
    std::printf("  time   served req/s   availability so far\n");
    for (int t = 5; t <= 120; t += 5) {
        sim.runUntil(sim::sec(static_cast<std::uint64_t>(t)));
        double rate = farm.served().meanRate(
            sim::sec(static_cast<std::uint64_t>(t - 5)),
            sim::sec(static_cast<std::uint64_t>(t)));
        double avail =
            farm.totalOffered()
                ? 100.0 * static_cast<double>(farm.totalServed()) /
                      static_cast<double>(farm.totalOffered())
                : 100.0;
        const char *note = "";
        if (t == 30)
            note = "  << node 3 crashes";
        if (t == 70)
            note = "  << node 3 reboots";
        std::printf("  %3ds   %12.0f   %18.2f%%%s\n", t, rate, avail,
                    note);
    }

    std::printf("\nfinal: served %llu of %llu requests; cluster %s\n",
                (unsigned long long)farm.totalServed(),
                (unsigned long long)farm.totalOffered(),
                cluster.splintered() ? "SPLINTERED (operator needed)"
                                     : "whole");
    return 0;
}
