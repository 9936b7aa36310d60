#include "exp/behavior_db.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace performa::exp {

ExperimentConfig
experimentFor(press::Version v, fault::FaultKind k)
{
    ExperimentConfig cfg = defaultExperimentConfig(v);
    fault::FaultSpec spec;
    spec.kind = k;
    spec.target = 3; // never the lowest-ID node (it answers rejoins)
    spec.injectAt = cfg.injectAt;

    // Transient faults last their Table 3 MTTR so measured stage
    // boundaries line up with the model's repair times.
    switch (k) {
      case fault::FaultKind::SwitchDown:
        spec.duration = sim::hours(1);
        break;
      case fault::FaultKind::LinkDown:
      case fault::FaultKind::NodeCrash:
      case fault::FaultKind::NodeFreeze:
      case fault::FaultKind::KernelMemAlloc:
      case fault::FaultKind::PinExhaustion:
      case fault::FaultKind::AppHang:
        spec.duration = sim::minutes(3);
        break;
      default:
        spec.duration = 0;
        break;
    }

    cfg.fault = spec;
    sim::Tick tail = sim::sec(150);
    cfg.duration = cfg.injectAt + spec.duration + tail;
    if (k == fault::FaultKind::AppCrash ||
        k == fault::FaultKind::BadParamNull ||
        k == fault::FaultKind::BadParamOffPtr ||
        k == fault::FaultKind::BadParamOffSize ||
        k == fault::FaultKind::PacketDrop) {
        cfg.duration = cfg.injectAt + sim::sec(180);
    }
    return cfg;
}

bool
BehaviorDb::has(press::Version v, fault::FaultKind k) const
{
    return rows_.count({v, k}) != 0;
}

const model::MeasuredBehavior &
BehaviorDb::get(press::Version v, fault::FaultKind k) const
{
    auto it = rows_.find({v, k});
    if (it == rows_.end())
        FATAL("BehaviorDb: no behaviour for ", press::versionName(v),
              " / ", fault::faultName(k));
    return it->second;
}

void
BehaviorDb::set(press::Version v, fault::FaultKind k,
                const model::MeasuredBehavior &mb)
{
    rows_[{v, k}] = mb;
}

model::BehaviorLookup
BehaviorDb::lookup() const
{
    return [this](press::Version v, fault::FaultKind k) {
        return get(v, k);
    };
}

namespace {
const char kFingerprintPrefix[] = "# fingerprint: ";
} // namespace

bool
BehaviorDb::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    std::getline(in, line); // fingerprint comment or column header
    std::string fileFp;
    if (line.rfind(kFingerprintPrefix, 0) == 0) {
        fileFp = line.substr(sizeof(kFingerprintPrefix) - 1);
        std::getline(in, line); // column header
    }
    // A stale cache (different seed scheme, axes, or SLO — or a
    // legacy file with no fingerprint at all) must be re-measured,
    // never merged.
    if (!fingerprint_.empty() && fileFp != fingerprint_)
        return false;
    // Caches written with latency recording carry extra columns.
    bool hasLatency = line.find(",lat,") != std::string::npos;
    while (std::getline(in, line)) {
        std::istringstream ss(line);
        std::string field;
        auto next = [&]() {
            std::getline(ss, field, ',');
            return field;
        };
        int v = std::stoi(next());
        int k = std::stoi(next());
        model::MeasuredBehavior mb;
        mb.normalTput = std::stod(next());
        mb.detected = std::stoi(next()) != 0;
        mb.healed = std::stoi(next()) != 0;
        for (int s = 0; s < model::numStages; ++s)
            mb.tput[s] = std::stod(next());
        for (int s = 0; s < model::numStages; ++s)
            mb.dur[s] = std::stod(next());
        if (hasLatency) {
            model::LatencySummary &ls = mb.latency;
            ls.present = std::stoi(next()) != 0;
            ls.sloQuantile = std::stod(next());
            ls.sloThresholdUs = std::stod(next());
            ls.fracWithinNormal = std::stod(next());
            ls.p50Us = std::stod(next());
            ls.p90Us = std::stod(next());
            ls.p99Us = std::stod(next());
            ls.p999Us = std::stod(next());
            for (int s = 0; s < model::numStages; ++s)
                ls.fracWithin[s] = std::stod(next());
            for (int s = 0; s < model::numStages; ++s)
                ls.stageP99Us[s] = std::stod(next());
        }
        rows_[{static_cast<press::Version>(v),
               static_cast<fault::FaultKind>(k)}] = mb;
    }
    return true;
}

void
BehaviorDb::save(const std::string &path) const
{
    // Write-to-temp + rename: an interrupted run must never leave a
    // truncated cache that a later run silently loads as complete.
    std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    if (!out)
        return;
    // The plain (paper) grid keeps its historical byte-identical
    // format; latency columns appear only when some row carries them.
    bool anyLatency = false;
    for (const auto &[key, mb] : rows_)
        if (mb.latency.present)
            anyLatency = true;
    if (!fingerprint_.empty())
        out << kFingerprintPrefix << fingerprint_ << "\n";
    out << "version,fault,tn,detected,healed";
    for (int s = 0; s < model::numStages; ++s)
        out << ",tput" << model::stageLetter(s);
    for (int s = 0; s < model::numStages; ++s)
        out << ",dur" << model::stageLetter(s);
    if (anyLatency) {
        out << ",lat,sloq,slous,fracN,p50,p90,p99,p999";
        for (int s = 0; s < model::numStages; ++s)
            out << ",frac" << model::stageLetter(s);
        for (int s = 0; s < model::numStages; ++s)
            out << ",p99" << model::stageLetter(s);
    }
    out << "\n";
    for (const auto &[key, mb] : rows_) {
        out << static_cast<int>(key.first) << ','
            << static_cast<int>(key.second) << ',' << mb.normalTput
            << ',' << (mb.detected ? 1 : 0) << ','
            << (mb.healed ? 1 : 0);
        for (int s = 0; s < model::numStages; ++s)
            out << ',' << mb.tput[s];
        for (int s = 0; s < model::numStages; ++s)
            out << ',' << mb.dur[s];
        if (anyLatency) {
            const model::LatencySummary &ls = mb.latency;
            out << ',' << (ls.present ? 1 : 0) << ',' << ls.sloQuantile
                << ',' << ls.sloThresholdUs << ',' << ls.fracWithinNormal
                << ',' << ls.p50Us << ',' << ls.p90Us << ',' << ls.p99Us
                << ',' << ls.p999Us;
            for (int s = 0; s < model::numStages; ++s)
                out << ',' << ls.fracWithin[s];
            for (int s = 0; s < model::numStages; ++s)
                out << ',' << ls.stageP99Us[s];
        }
        out << "\n";
    }
    out.flush();
    if (!out) {
        std::remove(tmp.c_str());
        return;
    }
    out.close();
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        std::remove(tmp.c_str());
}

} // namespace performa::exp
