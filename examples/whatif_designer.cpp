/**
 * @file
 * What-if designer: the Section 6.3 use case as a tool. You believe
 * your SAN will drop packets every X days, your team will add a VIA
 * bug every Y days, and the substrate will fall over every Z days —
 * should you deploy on TCP or on VIA?
 *
 *   $ ./whatif_designer [dropDays] [bugDays] [systemDays]
 *
 * (each a whole number of days; 0 disables a fault source; defaults
 * reproduce the paper's pessimistic combination of Figure 10.)
 *
 * The tool measures (or loads) the phase-1 behaviours, evaluates the
 * phase-2 model for every PRESS version under your fault beliefs,
 * and prints a recommendation.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "args.hh"
#include "campaign/phase1.hh"
#include "core/scenarios.hh"
#include "exp/behavior_db.hh"

using namespace performa;

int
main(int argc, char **argv)
{
    const double day = 86400.0;
    const char *usage = "[dropDays] [bugDays] [systemDays]";
    double drop_days = daysArg(argc, argv, 1, 30, usage);
    double bug_days = daysArg(argc, argv, 2, 14, usage);
    double system_days = daysArg(argc, argv, 3, 30, usage);

    std::printf("what-if designer: VIA packet drops every %.0f days, "
                "extra VIA bugs every %.0f days,\n"
                "VIA substrate crashes every %.0f days "
                "(0 = never)\n\n",
                drop_days, bug_days, system_days);

    exp::BehaviorDb db;
    std::string cache = campaign::defaultCachePath();
    std::printf("loading phase-1 behaviours from %s "
                "(measuring any missing pairs)...\n\n",
                cache.c_str());
    campaign::ensurePhase1(db, cache);

    model::ScenarioOptions opts;
    opts.appMttfSec = 30 * day;
    opts.viaPacketDropMttfSec = drop_days > 0 ? drop_days * day : 0;
    opts.viaExtraAppMttfSec = bug_days > 0 ? bug_days * day : 0;
    opts.viaSystemFaultMttfSec = system_days > 0 ? system_days * day : 0;

    struct Row
    {
        press::Version v;
        model::PerfResult r;
    };
    std::vector<Row> rows;
    for (press::Version v : press::allVersions)
        rows.push_back({v, model::evaluateScenario(v, db.lookup(), opts)});

    std::printf("%-14s %12s %14s %16s\n", "version", "throughput",
                "availability", "performability");
    for (const auto &row : rows) {
        std::printf("%-14s %9.0f r/s %13.4f%% %12.0f r/s\n",
                    press::versionName(row.v), row.r.normalTput,
                    100 * row.r.availability, row.r.performability);
    }

    auto best = std::max_element(rows.begin(), rows.end(),
                                 [](const Row &a, const Row &b) {
                                     return a.r.performability <
                                            b.r.performability;
                                 });
    std::printf("\nrecommendation: deploy %s (best performability "
                "under your assumed fault load)\n",
                press::versionName(best->v));

    double k = model::crossoverFactor(press::Version::ViaPress5,
                                      press::Version::TcpPressHb,
                                      db.lookup(), opts);
    std::printf("margin: VIA-PRESS-5's link/switch/app fault rates "
                "could grow %.1fx before TCP-PRESS-HB wins\n",
                k);
    return 0;
}
