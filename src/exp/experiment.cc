#include "exp/experiment.hh"

#include <memory>

#include "faults/injector.hh"
#include "loadgen/generator.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace performa::exp {

ExperimentConfig
defaultExperimentConfig(press::Version v)
{
    ExperimentConfig cfg;
    cfg.cluster.press.version = v;
    // Saturating open-loop load: ~15% above the version's near-peak
    // throughput, so measured throughput tracks server capacity.
    cfg.workload.requestRate = press::paperThroughput(v) * 1.15;
    // Slightly larger than the 4-node aggregate cache (65536 files),
    // like the paper's largest-working-set trace: the cooperative
    // cache runs full, so losing cache capacity costs real misses.
    cfg.workload.numFiles = 68000;
    return cfg;
}

Experiment::Experiment(ExperimentConfig cfg)
    : cfg_(std::move(cfg)), sim_(cfg_.seed)
{
    if (cfg_.profile.pareto.enabled)
        cfg_.cluster.press.fileSizeFn =
            loadgen::makeFileSizeFn(cfg_.profile.pareto);
    if (cfg_.profile.reserveSlices == 0)
        cfg_.profile.reserveSlices =
            static_cast<std::size_t>(cfg_.duration / sim::sec(1)) + 2;

    cluster_ = std::make_unique<press::Cluster>(sim_, cfg_.cluster);
    farm_ = loadgen::makeLoadGenerator(
        sim_, cluster_->clientNet(), cluster_->serverClientPorts(),
        cluster_->clientMachinePorts(), cfg_.workload, cfg_.profile);

    injector_ = std::make_unique<fault::Injector>(sim_, *cluster_);

    // Snapshot wiring, bottom-up: the simulation core first (clock,
    // RNG, event queue), then every cluster component (the marker log
    // included), then the load generator.
    registry_.attach(sim_);
    cluster_->registerWith(registry_);
    farm_->registerWith(registry_);
}

void
Experiment::warmUp()
{
    // Bring the world up: form the cluster, pre-warm the caches to
    // the steady-state file placement, then open the client valves.
    cluster_->startAll();
    sim_.runUntil(sim::sec(2));
    cluster_->prewarm(cfg_.workload.numFiles);
    farm_->start();

    // Drive the fault-free phase. Every event at or before injectAt
    // executes and the clock stops at exactly injectAt, so both the
    // fresh and the fork path see an identical world at the fault
    // point.
    sim_.runUntil(cfg_.injectAt);
    warmed_ = true;
}

sim::Snapshot
Experiment::snapshot() const
{
    return registry_.capture();
}

void
Experiment::forkFrom(const sim::Snapshot &snap)
{
    registry_.forkFrom(snap);
}

ExperimentResult
Experiment::injectAndMeasure(const std::optional<fault::FaultSpec> &f,
                             sim::Tick duration)
{
    if (!warmed_)
        PANIC("injectAndMeasure() before warmUp()");
    if (duration == 0)
        duration = cfg_.duration;

    if (f) {
        fault::FaultSpec spec = *f;
        spec.injectAt = cfg_.injectAt;
        injector_->injectNow(spec);
    }

    sim_.runUntil(duration);
    farm_->stop();

    ExperimentResult res;
    res.injectAt = cfg_.injectAt;
    res.runLength = duration;
    res.markers = cluster_->markers();

    // Copy out the series (they span the whole run, warm-up included).
    res.served = farm_->served();
    res.failed = farm_->failed();
    res.offered = farm_->offered();
    res.latency = farm_->timeline();

    // Steady-state throughput just before injection (or over the
    // second half of a fault-free run).
    sim::Tick t_from = f ? cfg_.injectAt - sim::sec(20) : duration / 2;
    sim::Tick t_to = f ? cfg_.injectAt : duration;
    res.normalThroughput = res.served.meanRate(t_from, t_to);

    res.availability =
        farm_->totalOffered()
            ? static_cast<double>(farm_->totalServed()) /
                  static_cast<double>(farm_->totalOffered())
            : 0.0;

    for (std::uint32_t i = 0; i < cluster_->numNodes(); ++i)
        res.finalMembers.push_back(cluster_->server(i).members().size());
    res.endSplintered = cluster_->splintered();

    net::Network &intra = cluster_->intraNet();
    for (std::size_t p = 0; p < intra.numPorts(); ++p)
        res.intraPortStats.push_back(
            intra.portStats(static_cast<net::PortId>(p)));

    return res;
}

ExperimentResult
runExperiment(const ExperimentConfig &cfg)
{
    Experiment e(cfg);
    e.warmUp();
    return e.injectAndMeasure(cfg.fault);
}

} // namespace performa::exp
