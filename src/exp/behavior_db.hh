/**
 * @file
 * The phase-1 behaviour database: measured 7-stage behaviours for
 * every (PRESS version, fault kind) pair. Benches measure once and
 * cache to a CSV file so the modeling figures (6-10) and the
 * crossover analysis can be regenerated quickly.
 */

#ifndef PERFORMA_EXP_BEHAVIOR_DB_HH
#define PERFORMA_EXP_BEHAVIOR_DB_HH

#include <map>
#include <string>
#include <utility>

#include "core/scenarios.hh"
#include "core/seven_stage.hh"
#include "exp/experiment.hh"
#include "faults/fault.hh"
#include "press/config.hh"

namespace performa::exp {

/**
 * The experiment configuration used to measure one pair: injection at
 * 60 s, the fault lasting its Table 3 MTTR, and a tail long enough to
 * observe recovery (or the lack of it).
 */
ExperimentConfig experimentFor(press::Version v, fault::FaultKind k);

/** Measured behaviours for all (version, fault) pairs. */
class BehaviorDb
{
  public:
    using Key = std::pair<press::Version, fault::FaultKind>;

    bool has(press::Version v, fault::FaultKind k) const;
    const model::MeasuredBehavior &get(press::Version v,
                                       fault::FaultKind k) const;
    void set(press::Version v, fault::FaultKind k,
             const model::MeasuredBehavior &mb);

    /**
     * Expected cache fingerprint: a short description of everything a
     * cached row's bytes depend on (seed-scheme version, grid axes,
     * SLO). When set, save() stamps it into the CSV as a leading
     * `# fingerprint:` comment and load() REJECTS any file whose
     * fingerprint differs — including legacy files with none — so a
     * stale cache is re-measured instead of silently merged. An empty
     * expectation (the default) accepts anything.
     */
    void setFingerprint(std::string fp) { fingerprint_ = std::move(fp); }
    const std::string &fingerprint() const { return fingerprint_; }

    bool load(const std::string &path);
    void save(const std::string &path) const;

    /** Adapter for the phase-2 scenario builders. */
    model::BehaviorLookup lookup() const;

    std::size_t size() const { return rows_.size(); }

  private:
    std::map<Key, model::MeasuredBehavior> rows_;
    std::string fingerprint_;
};

} // namespace performa::exp

#endif // PERFORMA_EXP_BEHAVIOR_DB_HH
