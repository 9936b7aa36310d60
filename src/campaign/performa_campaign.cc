/**
 * @file
 * performa_campaign: CLI driver for the phase-1 measurement campaign.
 * Runs the full (PRESS version x fault kind) behaviour grid — plus
 * optional cluster-size and load-scale axes — sharded across worker
 * threads, and writes the behaviour cache atomically.
 *
 * Results are bit-identical for any --jobs value: per-job seeds are
 * derived from (campaign seed, grid point), never from scheduling.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "campaign/phase1.hh"
#include "campaign/runner.hh"
#include "core/scenarios.hh"

using namespace performa;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Measure the phase-1 behaviour grid (every PRESS version x fault\n"
        "kind) with fault-injection experiments sharded across worker\n"
        "threads, and cache the results.\n"
        "\n"
        "options:\n"
        "  --jobs N       worker threads (default: PERFORMA_JOBS env,\n"
        "                 else hardware threads)\n"
        "  --cache PATH   behaviour cache file (default:\n"
        "                 PERFORMA_PHASE1_CACHE env, else\n"
        "                 performa_phase1.csv); extra axes get\n"
        "                 .nN / .xSCALE suffixes\n"
        "  --seed S       campaign seed (default 42)\n"
        "  --versions L   comma-separated version indices (Table 1\n"
        "                 order, 0-4; default: all)\n"
        "  --faults L     comma-separated fault-kind indices (Table 2\n"
        "                 order, 0-10; default: all)\n"
        "  --nodes LIST   comma-separated cluster sizes, each >= 2\n"
        "                 (default 4)\n"
        "  --scale LIST   comma-separated offered-load scales, each\n"
        "                 > 0 (default 1.0)\n"
        "  --profile NAME workload shape: steady (default), sessions,\n"
        "                 pareto, diurnal, flashcrowd; non-default\n"
        "                 shapes get a .pNAME cache suffix\n"
        "  --slo SPEC     latency SLO, e.g. p99=500ms (also p50/p90/\n"
        "                 p99.9; units s/ms/us). Scores each stage's\n"
        "                 total response times against it, adds SLO\n"
        "                 columns to the cache (own .sloSPEC suffix),\n"
        "                 and prints the phase-2 P vs P_slo comparison\n"
        "  --fresh        re-measure everything, ignore cached rows\n"
        "  --net-stats    print per-port NIC counters (traffic and\n"
        "                 drops by cause) for each measured point\n"
        "  --list         print the grid and per-job seeds, then exit\n"
        "  --quiet        suppress per-job progress\n"
        "  --help         this text\n",
        argv0);
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/** All of @p tok as an unsigned decimal number, or nullopt. */
std::optional<unsigned long long>
parseCount(const std::string &tok)
{
    if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return std::nullopt;
    return v;
}

/** All of @p tok as a finite number, or nullopt. */
std::optional<double>
parseReal(const std::string &tok)
{
    char *end = nullptr;
    double v = std::strtod(tok.c_str(), &end);
    if (tok.empty() || *end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

/** Append @p x unless @p list already holds it. */
template <typename T>
void
appendOnce(std::vector<T> &list, T x)
{
    if (std::find(list.begin(), list.end(), x) == list.end())
        list.push_back(x);
}

/** Cache path for one (nodes, scale) combo: plain for the default. */
std::string
comboCachePath(const std::string &base, std::uint32_t nodes,
               double scale, const std::string &profile,
               const std::string &sloSpec)
{
    std::string path = base;
    if (nodes != 4)
        path += ".n" + std::to_string(nodes);
    if (scale != 1.0) {
        char buf[32];
        std::snprintf(buf, sizeof buf, ".x%g", scale);
        path += buf;
    }
    if (!profile.empty() && profile != "steady")
        path += ".p" + profile;
    if (!sloSpec.empty()) {
        // SLO rows carry extra columns: never share a cache with a
        // plain campaign (its rows would satisfy the grid without
        // latency data).
        std::string tag = sloSpec;
        for (char &c : tag)
            if (c == '=' || c == '.')
                c = '_';
        path += ".slo" + tag;
    }
    return path;
}

/** Parse "p99=500ms" (p50/p90/p99/p99.9; units s/ms/us). */
std::optional<model::LatencySlo>
parseSlo(const std::string &spec)
{
    std::size_t eq = spec.find('=');
    if (eq == std::string::npos || spec.empty() || spec[0] != 'p')
        return std::nullopt;
    std::string q = spec.substr(1, eq - 1);
    char *qend = nullptr;
    double pct = std::strtod(q.c_str(), &qend);
    if (qend == q.c_str() || *qend != '\0' || pct <= 0 || pct >= 100)
        return std::nullopt;

    std::string th = spec.substr(eq + 1);
    char *tend = nullptr;
    double val = std::strtod(th.c_str(), &tend);
    if (tend == th.c_str() || val <= 0)
        return std::nullopt;
    std::string unit = tend;
    double us;
    if (unit == "s")
        us = val * 1e6;
    else if (unit == "ms" || unit.empty())
        us = val * 1e3;
    else if (unit == "us")
        us = val;
    else
        return std::nullopt;

    model::LatencySlo slo;
    slo.quantile = pct / 100.0;
    slo.thresholdUs = static_cast<std::uint64_t>(us);
    return slo;
}

/**
 * Post-campaign SLO analysis: per-point latency views, the phase-2
 * P vs P_slo comparison under the same-fault-load scenario (Fig. 6),
 * and any (version, fault) rankings that flip once performability is
 * defined over the latency SLO instead of raw throughput.
 */
void
printSloReport(const exp::BehaviorDb &db, const model::LatencySlo &slo,
               std::uint32_t numNodes)
{
    std::printf("\nlatency view (SLO: p%g <= %.6g ms):\n",
                slo.quantile * 100.0, slo.thresholdUs / 1000.0);
    for (press::Version v : press::allVersions) {
        for (fault::FaultKind k : fault::allFaultKinds) {
            if (!db.has(v, k))
                return; // incomplete grid: nothing to model
            const model::LatencySummary &ls = db.get(v, k).latency;
            if (!ls.present)
                return;
            std::printf(
                "  %-13s %-15s fracN %.4f p50 %7.1fms p99 %7.1fms"
                " | within-SLO A %.3f B %.3f C %.3f D %.3f E %.3f\n",
                press::versionName(v), fault::faultName(k),
                ls.fracWithinNormal, ls.p50Us / 1000.0,
                ls.p99Us / 1000.0, ls.fracWithin[model::StageA],
                ls.fracWithin[model::StageB],
                ls.fracWithin[model::StageC],
                ls.fracWithin[model::StageD],
                ls.fracWithin[model::StageE]);
        }
    }

    model::ScenarioOptions sopts;
    sopts.numNodes = static_cast<int>(numNodes);
    struct Row
    {
        press::Version v;
        model::PerfResult pr;
    };
    std::vector<Row> rows;
    for (press::Version v : press::allVersions)
        rows.push_back({v, model::evaluateScenario(v, db.lookup(),
                                                   sopts)});

    std::printf("\nperformability, throughput vs SLO-goodput "
                "(same fault load):\n");
    std::printf("  %-13s %9s %12s %9s %12s\n", "version", "Tn", "P",
                "Tn_slo", "P_slo");
    for (const Row &r : rows)
        std::printf("  %-13s %9.1f %12.1f %9.1f %12.1f\n",
                    press::versionName(r.v), r.pr.normalTput,
                    r.pr.performability, r.pr.sloNormalTput,
                    r.pr.sloPerformability);

    // A pair flips when the two metrics order it strictly and in
    // opposite directions (cmp(..) * cmp(..) < 0); a tie on either
    // metric is no flip.
    auto cmp = [](double a, double b) { return (a > b) - (a < b); };

    // Overall ranking flips.
    bool anyFlip = false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t j = i + 1; j < rows.size(); ++j) {
            int byTput = cmp(rows[i].pr.performability,
                             rows[j].pr.performability);
            int bySlo = cmp(rows[i].pr.sloPerformability,
                            rows[j].pr.sloPerformability);
            if (byTput * bySlo < 0) {
                anyFlip = true;
                const Row &w = byTput > 0 ? rows[i] : rows[j];
                const Row &l = byTput > 0 ? rows[j] : rows[i];
                std::printf("  ranking flip: %s > %s on throughput-P "
                            "but %s > %s on SLO-P\n",
                            press::versionName(w.v),
                            press::versionName(l.v),
                            press::versionName(l.v),
                            press::versionName(w.v));
            }
        }
    }

    // Per-fault ranking flips: order versions by this fault's share
    // of unavailability vs its share of SLO unavailability.
    for (fault::FaultKind k : fault::allFaultKinds) {
        std::vector<std::pair<press::Version, std::pair<double, double>>>
            contrib;
        for (const Row &r : rows) {
            double u = 0, su = 0;
            for (const model::FaultContribution &c : r.pr.breakdown) {
                if (c.kind == k) {
                    u += c.unavailability;
                    su += c.sloUnavailability;
                }
            }
            contrib.push_back({r.v, {u, su}});
        }
        for (std::size_t i = 0; i < contrib.size(); ++i) {
            for (std::size_t j = i + 1; j < contrib.size(); ++j) {
                int byTput = cmp(contrib[i].second.first,
                                 contrib[j].second.first);
                int bySlo = cmp(contrib[i].second.second,
                                contrib[j].second.second);
                if (byTput * bySlo < 0) {
                    anyFlip = true;
                    // Less unavailability wins.
                    auto &a = contrib[byTput < 0 ? i : j];
                    auto &b = contrib[byTput < 0 ? j : i];
                    std::printf(
                        "  ranking flip under %s: %s beats %s on "
                        "throughput unavailability (%.6g < %.6g) but "
                        "loses on SLO unavailability (%.6g > %.6g)\n",
                        fault::faultName(k),
                        press::versionName(a.first),
                        press::versionName(b.first), a.second.first,
                        b.second.first, a.second.second,
                        b.second.second);
                }
            }
        }
    }
    if (!anyFlip)
        std::printf("  no (version, fault) ranking flips under this "
                    "SLO\n");
}

/** Per-port NIC counters (traffic and drops by cause) per point. */
void
printNetStats(const std::vector<campaign::PointNetStats> &points)
{
    for (const campaign::PointNetStats &pt : points) {
        std::printf("net-stats %s x %s:\n", press::versionName(pt.version),
                    fault::faultName(pt.kind));
        for (std::size_t p = 0; p < pt.ports.size(); ++p) {
            const net::PortStats &st = pt.ports[p];
            std::printf("  port %zu: sent %llu (%llu B) rcvd %llu (%llu B) "
                        "drops %llu [port-down %llu link-down %llu "
                        "switch-down %llu in-flight %llu]\n",
                        p, static_cast<unsigned long long>(st.framesSent),
                        static_cast<unsigned long long>(st.bytesSent),
                        static_cast<unsigned long long>(st.framesReceived),
                        static_cast<unsigned long long>(st.bytesReceived),
                        static_cast<unsigned long long>(st.drops()),
                        static_cast<unsigned long long>(st.dropPortDown),
                        static_cast<unsigned long long>(st.dropLinkDown),
                        static_cast<unsigned long long>(st.dropSwitchDown),
                        static_cast<unsigned long long>(
                            st.dropDiedInFlight));
        }
    }
}

std::string
fmtDuration(double s)
{
    char buf[32];
    if (s >= 60)
        std::snprintf(buf, sizeof buf, "%dm%02ds", int(s) / 60,
                      int(s) % 60);
    else
        std::snprintf(buf, sizeof buf, "%.1fs", s);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    std::string cache = campaign::defaultCachePath();
    std::uint64_t seed = 42;
    std::vector<std::uint32_t> nodeAxis = {4};
    std::vector<double> scaleAxis = {1.0};
    std::vector<press::Version> versionSubset;
    std::vector<fault::FaultKind> faultSubset;
    bool fresh = false, quiet = false, list = false, netStats = false;
    loadgen::LoadProfileSpec profile;
    std::string sloSpec;
    std::optional<model::LatencySlo> slo;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *opt) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", opt);
                std::exit(2);
            }
            return argv[++i];
        };
        // Reject a malformed number before anything runs or is written.
        auto bad = [&](const char *opt, const std::string &tok) {
            std::fprintf(stderr, "bad %s value: %s\n", opt, tok.c_str());
            std::exit(2);
        };
        auto count = [&](const char *opt, const std::string &tok,
                         unsigned long long lo, unsigned long long hi) {
            std::optional<unsigned long long> n = parseCount(tok);
            if (!n || *n < lo || *n > hi)
                bad(opt, tok);
            return *n;
        };
        if (arg == "--jobs") {
            jobs = static_cast<unsigned>(
                count("--jobs", value("--jobs"), 0, UINT32_MAX));
        } else if (arg == "--cache") {
            cache = value("--cache");
        } else if (arg == "--seed") {
            seed = count("--seed", value("--seed"), 0, UINT64_MAX);
        } else if (arg == "--versions") {
            for (const std::string &tok : splitCsv(value("--versions")))
                appendOnce(versionSubset,
                           press::allVersions[count(
                               "--versions", tok, 0,
                               std::size(press::allVersions) - 1)]);
        } else if (arg == "--faults") {
            for (const std::string &tok : splitCsv(value("--faults")))
                appendOnce(faultSubset,
                           fault::allFaultKinds[count(
                               "--faults", tok, 0,
                               std::size(fault::allFaultKinds) - 1)]);
        } else if (arg == "--nodes") {
            nodeAxis.clear();
            for (const std::string &tok : splitCsv(value("--nodes")))
                appendOnce(nodeAxis, static_cast<std::uint32_t>(count(
                                         "--nodes", tok, 2, UINT32_MAX)));
        } else if (arg == "--scale") {
            scaleAxis.clear();
            for (const std::string &tok : splitCsv(value("--scale"))) {
                std::optional<double> x = parseReal(tok);
                if (!x || *x <= 0)
                    bad("--scale", tok);
                appendOnce(scaleAxis, *x);
            }
        } else if (arg == "--profile") {
            std::string name = value("--profile");
            auto p = loadgen::profileByName(name);
            if (!p) {
                std::fprintf(stderr, "unknown profile: %s\n",
                             name.c_str());
                return 2;
            }
            profile = *p;
        } else if (arg == "--slo") {
            sloSpec = value("--slo");
            slo = parseSlo(sloSpec);
            if (!slo) {
                std::fprintf(stderr,
                             "bad --slo spec (want e.g. p99=500ms): "
                             "%s\n",
                             sloSpec.c_str());
                return 2;
            }
        } else if (arg == "--fresh") {
            fresh = true;
        } else if (arg == "--net-stats") {
            netStats = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (nodeAxis.empty() || scaleAxis.empty()) {
        std::fprintf(stderr, "empty --nodes/--scale axis\n");
        return 2;
    }
    // No --versions / --faults means the whole grid, in table order.
    if (versionSubset.empty())
        versionSubset.assign(std::begin(press::allVersions),
                             std::end(press::allVersions));
    if (faultSubset.empty())
        faultSubset.assign(std::begin(fault::allFaultKinds),
                           std::end(fault::allFaultKinds));

    if (list) {
        for (std::uint32_t n : nodeAxis)
            for (double x : scaleAxis)
                for (press::Version v : versionSubset)
                    for (fault::FaultKind k : faultSubset)
                        std::printf(
                            "%-13s %-15s nodes=%u scale=%g "
                            "seed=%016llx\n",
                            press::versionName(v), fault::faultName(k),
                            n, x,
                            static_cast<unsigned long long>(
                                campaign::phase1Seed(seed, v, n, x,
                                                     profile.name)));
        return 0;
    }

    unsigned effective =
        jobs ? jobs : campaign::defaultWorkerCount();
    bool anyFailed = false;

    for (std::uint32_t n : nodeAxis) {
        for (double x : scaleAxis) {
            campaign::Phase1Options opts;
            opts.workers = jobs;
            opts.campaignSeed = seed;
            opts.numNodes = n;
            opts.loadScale = x;
            opts.fresh = fresh;
            opts.profile = profile;
            opts.slo = slo;
            opts.versions = versionSubset;
            opts.faults = faultSubset;
            std::string path =
                comboCachePath(cache, n, x, profile.name, sloSpec);
            std::printf("campaign: %zu-point grid, nodes=%u scale=%g "
                        "jobs=%u cache=%s\n",
                        versionSubset.size() * faultSubset.size(), n, x,
                        effective, path.c_str());
            if (!quiet) {
                opts.progress = [](const campaign::Progress &p) {
                    std::printf("  [%2zu/%2zu] %-7s %-32s %6.1fs"
                                "   elapsed %-7s eta %s\n",
                                p.done, p.total,
                                p.last->ok ? "done" : "FAILED",
                                p.last->label.c_str(),
                                p.last->wallSeconds,
                                fmtDuration(p.elapsedSeconds).c_str(),
                                fmtDuration(p.etaSeconds).c_str());
                    std::fflush(stdout);
                };
            }
            exp::BehaviorDb db;
            campaign::Phase1Result res =
                campaign::ensurePhase1(db, path, opts);
            if (netStats)
                printNetStats(res.netStats);
            std::printf("campaign: %zu measured, %zu cached, "
                        "%zu failed in %s",
                        res.measured, res.cached, res.failed,
                        fmtDuration(res.wallSeconds).c_str());
            if (res.measured + res.failed > 0)
                std::printf(", workers=%u %.0f%% busy", res.workers,
                            res.busyFraction * 100.0);
            std::printf("\n");
            for (const campaign::JobReport &f : res.failures)
                std::printf("  FAILED %s: %s\n", f.label.c_str(),
                            f.error.c_str());
            if (!res.ok())
                anyFailed = true;
            else if (slo)
                printSloReport(db, *slo, n);
        }
    }
    return anyFailed ? 1 : 0;
}
