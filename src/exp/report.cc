#include "exp/report.hh"

#include <algorithm>
#include <fstream>
#include <string>

namespace performa::exp {

void
printSeries(const ExperimentResult &res, sim::Tick from, sim::Tick to,
            sim::Tick step, std::FILE *out)
{
    double peak = 1.0;
    for (sim::Tick t = from; t + step <= to; t += step)
        peak = std::max(peak, res.served.meanRate(t, t + step));

    for (sim::Tick t = from; t + step <= to; t += step) {
        double r = res.served.meanRate(t, t + step);
        int bar = static_cast<int>(50.0 * r / peak + 0.5);
        std::string b(static_cast<std::size_t>(bar), '#');

        // Annotate markers falling in this bucket.
        std::string notes;
        for (const auto &m : res.markers.all()) {
            if (m.t >= t && m.t < t + step) {
                if (!notes.empty())
                    notes += "; ";
                notes += press::markerName(m.kind);
                if (!m.detail.empty())
                    notes += ":" + m.detail;
            }
        }
        std::fprintf(out, "  t=%5.0fs  %7.0f req/s  |%-50s|%s%s\n",
                     sim::toSeconds(t), r, b.c_str(),
                     notes.empty() ? "" : "  << ", notes.c_str());
    }
}

void
printMarkers(const ExperimentResult &res, std::FILE *out)
{
    for (const auto &m : res.markers.all()) {
        std::fprintf(out, "  [%8.2fs] %-14s node=%d other=%d %s\n",
                     sim::toSeconds(m.t), press::markerName(m.kind),
                     m.node == sim::invalidNode ? -1
                                                : static_cast<int>(m.node),
                     m.other == sim::invalidNode
                         ? -1
                         : static_cast<int>(m.other),
                     m.detail.c_str());
    }
}

void
printBehavior(const model::MeasuredBehavior &mb, std::FILE *out)
{
    std::fprintf(out,
                 "  Tn=%.0f req/s  detected=%s  healed=%s\n",
                 mb.normalTput, mb.detected ? "yes" : "no",
                 mb.healed ? "yes" : "no");
    for (int s = 0; s < model::numStages; ++s) {
        std::fprintf(out, "    stage %c: tput=%7.0f  dur=%7.1fs%s\n",
                     model::stageLetter(s), mb.tput[s], mb.dur[s],
                     (s == model::StageC || s >= model::StageE)
                         ? "  (duration resolved by the model)"
                         : "");
    }
}

bool
writeSeriesCsv(const ExperimentResult &res, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "t_sec,served,failed,offered\n";
    std::size_t n = std::max({res.served.size(), res.failed.size(),
                              res.offered.size()});
    for (std::size_t i = 0; i < n; ++i) {
        out << i << ',' << res.served.count(i) << ','
            << res.failed.count(i) << ',' << res.offered.count(i)
            << '\n';
    }
    return true;
}

} // namespace performa::exp
