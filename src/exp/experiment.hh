/**
 * @file
 * Phase 1 of the methodology: run one PRESS version under a
 * saturating client load, inject a single fault, and record the
 * throughput/availability time series plus event markers.
 */

#ifndef PERFORMA_EXP_EXPERIMENT_HH
#define PERFORMA_EXP_EXPERIMENT_HH

#include <optional>
#include <set>
#include <vector>

#include <memory>

#include "faults/fault.hh"
#include "faults/injector.hh"
#include "net/network.hh"
#include "press/cluster.hh"
#include "sim/latency_histogram.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"
#include "sim/time_series.hh"
#include "loadgen/client_farm.hh"
#include "loadgen/load_profile.hh"

namespace performa::exp {

/** One experiment's parameters. */
struct ExperimentConfig
{
    press::ClusterConfig cluster;
    loadgen::WorkloadConfig workload;
    /** Workload shape; the default reproduces the paper's flat load
     *  byte-for-byte (see loadgen/load_profile.hh). */
    loadgen::LoadProfileSpec profile;
    std::optional<fault::FaultSpec> fault;
    sim::Tick injectAt = sim::sec(60);
    sim::Tick duration = sim::sec(210); ///< total run length
    std::uint64_t seed = 42;
};

/**
 * Sensible defaults for a given version: saturating offered load and
 * a working set that exercises the cooperative cache.
 */
ExperimentConfig defaultExperimentConfig(press::Version v);

/** Everything a phase-1 run produces. */
struct ExperimentResult
{
    sim::TimeSeries served{sim::sec(1)};
    sim::TimeSeries failed{sim::sec(1)};
    sim::TimeSeries offered{sim::sec(1)};
    /** Whole-run per-stage latency histograms, plus one-second
     *  slices of the total stage (what SLO rows window). */
    sim::StageLatencyTimeline latency;
    press::MarkerLog markers;

    /** Mean served rate in the pre-fault steady window. */
    double normalThroughput = 0.0;
    /** Fraction of offered requests served over the whole run. */
    double availability = 0.0;
    /** Cooperating-set sizes per server at the end of the run. */
    std::vector<std::size_t> finalMembers;
    /** Live servers no longer form one cooperating cluster. */
    bool endSplintered = false;
    sim::Tick runLength = 0;
    sim::Tick injectAt = 0;
    /**
     * End-of-run NIC counters for each intra-cluster port (indexed by
     * node id: osim::Node owns the port of its id): traffic totals
     * plus drops by cause.
     */
    std::vector<net::PortStats> intraPortStats;
};

/**
 * One phase-1 world, split into a fault-free warm phase and an
 * inject-and-measure phase so a whole fault grid can share one
 * warm-up:
 *
 *   Experiment e(cfg);
 *   e.warmUp();                       // [0, cfg.injectAt], no fault
 *   sim::Snapshot snap = e.snapshot();
 *   for (auto &fault : grid) {
 *       e.forkFrom(snap);             // rewind to the warm point
 *       auto res = e.injectAndMeasure(fault);
 *   }
 *
 * The fresh path (runExperiment) is warmUp() followed directly by
 * injectAndMeasure() — no snapshot round-trip — so fork-vs-fresh
 * byte-equality genuinely tests restore fidelity.
 *
 * In both paths the fault is applied at exactly cfg.injectAt, after
 * every event scheduled at or before that tick has executed.
 *
 * This is the one place outside the unit tests that assembles and
 * brings up a world. Callers that drive their own events (the
 * long-run validation's fault storm and operator watchdog) warm up,
 * schedule them on sim(), cluster() and injector(), then run the
 * rest with injectAndMeasure(std::nullopt).
 */
class Experiment
{
  public:
    explicit Experiment(ExperimentConfig cfg);

    /** Build the world and run the fault-free phase [0, injectAt];
     *  the clock is left at exactly cfg.injectAt. */
    void warmUp();

    /** Capture the warmed world (call right after warmUp()). */
    sim::Snapshot snapshot() const;

    /** Rewind the world to @p snap (the warm-up point). */
    void forkFrom(const sim::Snapshot &snap);

    /** Inject @p f (if any) at the warm-up point, run to
     *  @p duration (0 = cfg.duration; must be <= cfg.duration so the
     *  reserved series capacity covers it) and collect the result.
     *  Callable repeatedly, once per forkFrom(). */
    ExperimentResult
    injectAndMeasure(const std::optional<fault::FaultSpec> &f,
                     sim::Tick duration = 0);

    const ExperimentConfig &config() const { return cfg_; }
    press::Cluster &cluster() { return *cluster_; }
    sim::Simulation &sim() { return sim_; }
    fault::Injector &injector() { return *injector_; }

  private:
    ExperimentConfig cfg_;
    sim::Simulation sim_;
    std::unique_ptr<press::Cluster> cluster_;
    std::unique_ptr<loadgen::LoadGenerator> farm_;
    std::unique_ptr<fault::Injector> injector_;
    sim::SnapshotRegistry registry_;
    bool warmed_ = false;
};

/**
 * Build the world, warm it, drive it, inject, record. One call = one
 * fault-injection experiment, as in Section 5 of the paper.
 */
ExperimentResult runExperiment(const ExperimentConfig &cfg);

} // namespace performa::exp

#endif // PERFORMA_EXP_EXPERIMENT_HH
