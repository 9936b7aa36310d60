/**
 * @file
 * Failure drill: inject any fault of the paper's fault model (Table
 * 2) into any PRESS version and watch the annotated timeline plus the
 * extracted 7-stage behaviour — phase 1 of the methodology as an
 * interactive tool.
 *
 *   $ ./failure_drill <version 0-4> <fault 0-10>
 *
 * Versions: 0 TCP-PRESS, 1 TCP-PRESS-HB, 2 VIA-PRESS-0,
 *           3 VIA-PRESS-3, 4 VIA-PRESS-5
 * Faults: 0 link, 1 switch, 2 node-crash, 3 node-freeze,
 *         4 kernel-mem, 5 pin, 6 app-crash, 7 app-hang,
 *         8 null-ptr, 9 off-by-N ptr, 10 off-by-N size
 */

#include <cstdio>

#include "args.hh"
#include "exp/behavior_db.hh"
#include "exp/report.hh"
#include "exp/stages.hh"

using namespace performa;

int
main(int argc, char **argv)
{
    const char *usage = "[version 0-4] [fault 0-10]";
    press::Version v = tableArg(press::allVersions, argc, argv, 1, 1, usage);
    fault::FaultKind k =
        tableArg(fault::allFaultKinds, argc, argv, 2, 0, usage);

    std::printf("failure drill: %s under %s\n\n", press::versionName(v),
                fault::faultName(k));

    exp::ExperimentConfig cfg = exp::experimentFor(v, k);
    // Keep the drill snappy: shorter fault + run than the canonical
    // experiment, but the same dynamics.
    if (cfg.fault->duration > sim::sec(90))
        cfg.fault->duration = sim::sec(90);
    cfg.duration = cfg.injectAt + cfg.fault->duration + sim::sec(120);

    exp::ExperimentResult res = exp::runExperiment(cfg);

    std::printf("markers:\n");
    exp::printMarkers(res);
    std::printf("\nthroughput timeline:\n");
    exp::printSeries(res, sim::sec(40), cfg.duration, sim::sec(5));

    std::printf("\nextracted 7-stage behaviour:\n");
    model::MeasuredBehavior mb = exp::extractBehavior(res, *cfg.fault);
    exp::printBehavior(mb);
    std::printf("\nend state: %s\n",
                res.endSplintered
                    ? "splintered - an operator must reset the cluster"
                    : "healthy single cluster");
    return 0;
}
