#include "exp/behavior_db.hh"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>

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

/**
 * Reads one CSV row's fields in order, each as a number. A field that
 * is not wholly a number, or a row with fewer or more fields than
 * were read, fails the row.
 */
class RowReader
{
  public:
    explicit RowReader(const std::string &line)
        : p_(line.data()), end_(line.data() + line.size())
    {}

    template <typename T>
    T
    next()
    {
        T x{};
        auto [q, ec] = std::from_chars(p_, end_, x);
        ok_ = ok_ && ec == std::errc() && (q == end_ || *q == ',');
        atEnd_ = q == end_;
        p_ = atEnd_ ? q : q + 1;
        return x;
    }

    /** @return true when every field read and no field is left. */
    bool ok() const { return ok_ && atEnd_; }

  private:
    const char *p_;
    const char *end_;
    bool ok_ = true;
    bool atEnd_ = false;
};

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
    // The file comes from outside the program: every row must have
    // exactly the header's fields, each wholly a number, and name a
    // Table 1 version and a Table 2 fault, or nothing is merged.
    std::map<Key, model::MeasuredBehavior> rows;
    while (std::getline(in, line)) {
        RowReader r(line);
        int v = r.next<int>();
        int k = r.next<int>();
        model::MeasuredBehavior mb;
        mb.normalTput = r.next<double>();
        mb.detected = r.next<int>() != 0;
        mb.healed = r.next<int>() != 0;
        for (int s = 0; s < model::numStages; ++s)
            mb.tput[s] = r.next<double>();
        for (int s = 0; s < model::numStages; ++s)
            mb.dur[s] = r.next<double>();
        if (hasLatency) {
            model::LatencySummary &ls = mb.latency;
            ls.present = r.next<int>() != 0;
            ls.sloQuantile = r.next<double>();
            ls.sloThresholdUs = r.next<double>();
            ls.fracWithinNormal = r.next<double>();
            ls.p50Us = r.next<double>();
            ls.p90Us = r.next<double>();
            ls.p99Us = r.next<double>();
            ls.p999Us = r.next<double>();
            for (int s = 0; s < model::numStages; ++s)
                ls.fracWithin[s] = r.next<double>();
            for (int s = 0; s < model::numStages; ++s)
                ls.stageP99Us[s] = r.next<double>();
        }
        if (!r.ok() || v < 0 || v >= int(std::size(press::allVersions)) ||
            k < 0 || k >= int(std::size(fault::allFaultKinds)))
            return false;
        rows[{press::allVersions[v], fault::allFaultKinds[k]}] = mb;
    }
    for (auto &[key, mb] : rows)
        rows_[key] = mb;
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
