/**
 * @file
 * perfbench_campaign: the measuring half of the campaign benchmark
 * (run.py next to this file builds it, checks its rows and derives the
 * metrics). Two modes, both over one named workload grid:
 *
 *   campaign  The untraced, timed run: campaign::ensurePhase1 (the path
 *             performa_campaign wraps) with `--jobs` workers. Reports
 *             host wall time until the DB is written, process CPU time,
 *             peak RSS and every JobReport the runner streams.
 *   trace     The jobs campaign/phase1.cc builds, making the same
 *             public calls in the same order, run by the same campaign
 *             runner with `--jobs` workers (1 gives one worker). Each
 *             call is a span (name, start, end, parent, grid point,
 *             allocations), and each layer's public counters are read
 *             at the call boundaries.
 *
 * Both modes write the behaviour DB exactly as the campaign does, and
 * a JSON report. Everything is measured from outside the library:
 * nothing under src/ knows it is being benchmarked.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/phase1.hh"
#include "core/scenarios.hh"
#include "exp/experiment.hh"
#include "exp/stages.hh"

using namespace performa;

// ---------------------------------------------------------------------
// Allocation counting. The replacement operator new counts only while
// the calling thread is inside a traced span; the timed campaign's
// worker threads never enable it, so they pay one untaken branch.

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocs = 0;

void *
countedAlloc(std::size_t n)
{
    if (t_counting)
        ++t_allocs;
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAllocAligned(std::size_t n, std::size_t align)
{
    if (t_counting)
        ++t_allocs;
    void *p = nullptr;
    if (posix_memalign(&p, align < sizeof(void *) ? sizeof(void *) : align,
                       n ? n : 1) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAllocAligned(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAllocAligned(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

// ---------------------------------------------------------------------
// Workloads.

struct Workload
{
    const char *name;
    std::vector<int> versions; ///< Table 1 indices
    std::vector<int> faults;   ///< Table 2 indices
    const char *profile;
    bool slo; ///< p99 <= 500 ms
};

const Workload kWorkloads[] = {
    {"steady-grid", {0, 1, 2, 3, 4}, {0, 6}, "steady", false},
    {"fork-fanout", {0}, {2, 4, 7, 8}, "steady", false},
    {"sessions-slo", {0, 1, 2, 3, 4}, {0}, "sessions", true},
    // One version x one fault: the benchmark's own end-to-end test.
    {"quick", {0}, {6}, "steady", false},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

campaign::Phase1Options
optionsFor(const Workload &w, std::uint64_t seed)
{
    campaign::Phase1Options opts;
    opts.campaignSeed = seed;
    opts.fresh = true;
    for (int v : w.versions)
        opts.versions.push_back(press::allVersions[v]);
    for (int k : w.faults)
        opts.faults.push_back(fault::allFaultKinds[k]);
    opts.profile = *loadgen::profileByName(w.profile);
    if (w.slo)
        opts.slo = model::LatencySlo{0.99, 500000};
    return opts;
}

// ---------------------------------------------------------------------
// A minimal JSON writer: objects and arrays of numbers and strings.

class Json
{
  public:
    Json &
    key(const char *k)
    {
        comma();
        out_ << '"' << k << "\":";
        fresh_ = true;
        return *this;
    }
    Json &
    num(double v)
    {
        comma();
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out_ << buf;
        return *this;
    }
    Json &
    str(const std::string &s)
    {
        comma();
        out_ << '"';
        for (char c : s) {
            if (c == '"' || c == '\\')
                out_ << '\\' << c;
            else if (static_cast<unsigned char>(c) < 0x20)
                out_ << ' ';
            else
                out_ << c;
        }
        out_ << '"';
        return *this;
    }
    Json &
    boolean(bool b)
    {
        comma();
        out_ << (b ? "true" : "false");
        return *this;
    }
    Json &
    null()
    {
        comma();
        out_ << "null";
        return *this;
    }
    /** Insert pre-rendered JSON as one value. */
    Json &
    raw(const std::string &text)
    {
        comma();
        out_ << text;
        return *this;
    }
    Json &open(char c) { comma(); out_ << c; fresh_ = true; return *this; }
    Json &close(char c) { out_ << c; fresh_ = false; return *this; }

    std::string text() const { return out_.str(); }

  private:
    void
    comma()
    {
        if (!fresh_)
            out_ << ',';
        fresh_ = false;
    }

    std::ostringstream out_;
    bool fresh_ = true;
};

void
writeGrid(Json &j, const Workload &w)
{
    j.key("grid").open('[');
    for (int v : w.versions)
        for (int k : w.faults)
            j.open('[').num(v).num(k).close(']');
    j.close(']');
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
simSeconds(sim::Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim::sec(1));
}

// ---------------------------------------------------------------------
// Untraced campaign.

int
runCampaign(const Workload &w, std::uint64_t seed, unsigned jobs,
            const std::string &dbPath, Json &j)
{
    campaign::Phase1Options opts = optionsFor(w, seed);
    opts.workers = jobs;
    std::vector<campaign::JobReport> reports;
    // Progress calls are serialized by the runner.
    opts.progress = [&reports](const campaign::Progress &p) {
        reports.push_back(*p.last);
    };

    exp::BehaviorDb db;
    double cpu0 = cpuSeconds();
    auto t0 = std::chrono::steady_clock::now();
    campaign::ensurePhase1(db, dbPath, opts);
    auto t1 = std::chrono::steady_clock::now();
    double cpu1 = cpuSeconds();

    j.key("wall_s").num(std::chrono::duration<double>(t1 - t0).count());
    j.key("cpu_s").num(cpu1 - cpu0);
    j.key("peak_rss_mb").num(peakRssMb());
    j.key("reports").open('[');
    for (const campaign::JobReport &r : reports) {
        j.open('{');
        if (r.tag == campaign::kWarmupJobTag) {
            // The runner's report carries no strand; the warm-up's
            // label names its version.
            int version = -1;
            for (int v : w.versions)
                if (r.label == std::string(press::versionName(
                                   press::allVersions[v])) +
                                   " warm-up")
                    version = v;
            j.key("kind").str("warmup").key("version").num(version);
        } else {
            auto [v, k] = campaign::phase1TagKey(r.tag);
            j.key("kind").str("point");
            j.key("version").num(static_cast<int>(v));
            j.key("fault").num(static_cast<int>(k));
        }
        j.key("ok").boolean(r.ok).key("wall_s").num(r.wallSeconds);
        j.key("error").str(r.error);
        j.close('}');
    }
    j.close(']');
    return 0;
}

// ---------------------------------------------------------------------
// Traced run.

/** Public counters of every layer, read at a call boundary. A plain
 *  struct, so reading it inside a span allocates nothing; it is
 *  rendered to JSON only after the span ends. */
struct Counters
{
    sim::Tick now = 0;
    std::uint64_t events = 0;
    std::uint64_t heapEntries = 0;
    std::uint64_t liveEvents = 0;
    std::uint64_t poolFresh = 0;
    std::uint64_t poolHits = 0;
    std::uint64_t localHits = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t localMisses = 0;
    std::uint64_t cacheEvictions = 0;
    std::uint64_t broadcasts = 0;
    sim::Tick stalled = 0;
    std::uint64_t intraFrames = 0;
    std::uint64_t intraBytes = 0;
    std::uint64_t intraDrops = 0;
    std::uint64_t clientFrames = 0;
    sim::Tick cpuBusy = 0; ///< summed over nodes
    std::uint32_t nodes = 0;
};

Counters
readCounters(exp::Experiment &e)
{
    Counters c;
    sim::Simulation &s = e.sim();
    press::Cluster &cl = e.cluster();
    c.now = s.now();
    c.events = s.events().executed();
    c.heapEntries = s.events().heapSize();
    c.liveEvents = s.events().pending();
    c.poolFresh = s.pool().freshAllocs();
    c.poolHits = s.pool().poolHits();
    c.nodes = cl.numNodes();
    for (std::uint32_t i = 0; i < c.nodes; ++i) {
        const press::ServerStats &st = cl.server(i).stats();
        c.localHits += st.localHits;
        c.forwarded += st.forwarded;
        c.localMisses += st.localMisses;
        c.cacheEvictions += st.cacheEvictions;
        c.broadcasts += st.broadcastsSent;
        c.stalled += st.stalledTime;
        c.cpuBusy += cl.node(i).cpu().busyTime();
    }
    net::Network &intra = cl.intraNet();
    c.intraFrames = intra.delivered();
    c.intraDrops = intra.dropped();
    for (std::size_t p = 0; p < intra.numPorts(); ++p)
        c.intraBytes +=
            intra.portStats(static_cast<net::PortId>(p)).bytesReceived;
    c.clientFrames = cl.clientNet().delivered();
    return c;
}

void
writeCounters(Json &j, const char *name, const Counters &c)
{
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    j.key(name).open('{');
    j.key("sim_s").num(simSeconds(c.now));
    j.key("events").num(u(c.events));
    j.key("heap_entries").num(u(c.heapEntries));
    j.key("live_events").num(u(c.liveEvents));
    j.key("pool_fresh").num(u(c.poolFresh));
    j.key("pool_hits").num(u(c.poolHits));
    j.key("local_hits").num(u(c.localHits));
    j.key("forwarded").num(u(c.forwarded));
    j.key("local_misses").num(u(c.localMisses));
    j.key("cache_evictions").num(u(c.cacheEvictions));
    j.key("broadcasts").num(u(c.broadcasts));
    j.key("stall_s").num(simSeconds(c.stalled));
    j.key("intra_frames").num(u(c.intraFrames));
    j.key("intra_bytes").num(u(c.intraBytes));
    j.key("intra_drops").num(u(c.intraDrops));
    j.key("client_frames").num(u(c.clientFrames));
    j.key("cpu_busy_s").num(simSeconds(c.cpuBusy));
    j.key("nodes").num(c.nodes);
    j.close('}');
}

/** In-memory span log of one thread; written out once the run ends. */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        std::string name;
        int parent = -1;
        std::string point;
        double t0 = 0, t1 = 0;
        std::uint64_t allocs = 0;
    };

    explicit Tracer(Clock::time_point start) : start_(start)
    {
        spans_.reserve(64);
    }

    /**
     * Run @p f as one span. Allocations are counted only while some
     * span's own code runs; the tracer's bookkeeping is excluded from
     * every span, nested ones included.
     */
    template <typename F>
    void
    span(const char *name, const std::string &point, F &&f)
    {
        t_counting = false;
        int id = static_cast<int>(spans_.size());
        spans_.push_back({name, current_, point, 0, 0, 0});
        int parent = current_;
        current_ = id;
        spans_[id].t0 = now();
        std::uint64_t a0 = t_allocs;
        t_counting = true;
        f();
        t_counting = false;
        std::uint64_t a1 = t_allocs;
        spans_[id].t1 = now();
        spans_[id].allocs = a1 - a0;
        current_ = parent;
        t_counting = parent >= 0;
    }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    int
    find(const char *name) const
    {
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name)
                return static_cast<int>(i);
        return -1;
    }

    /** Append the spans with ids from @p offset; root spans get
     *  @p rootParent. @return the next free id. */
    int
    write(Json &j, int offset, int rootParent, int job) const
    {
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            j.open('{').key("id").num(offset + static_cast<int>(i));
            j.key("name").str(s.name);
            j.key("parent").num(s.parent < 0 ? rootParent
                                             : offset + s.parent);
            j.key("job").num(job).key("point").str(s.point);
            j.key("t0").num(s.t0).key("t1").num(s.t1);
            j.key("allocs").num(static_cast<double>(s.allocs));
            j.close('}');
        }
        return offset + static_cast<int>(spans_.size());
    }

  private:
    Clock::time_point start_;
    std::vector<Span> spans_;
    int current_ = -1;
};

/** core.evaluate: phase-2 model over a committed full-grid DB. */
void
evaluateModel(const std::string &fullGrid)
{
    exp::BehaviorDb full;
    if (!full.load(fullGrid))
        throw std::runtime_error("cannot load " + fullGrid);
    model::BehaviorLookup lookup = full.lookup();
    model::ScenarioOptions sopts;
    double sink = 0;
    for (press::Version v : press::allVersions)
        sink += model::evaluateScenario(v, lookup, sopts).performability;
    sink += model::crossoverFactor(press::Version::ViaPress0,
                                   press::Version::TcpPress, lookup, sopts);
    if (!(sink > 0))
        throw std::runtime_error("phase-2 model returned no result");
}

/** What one traced job leaves behind, merged after the barrier. */
struct JobTrace
{
    explicit JobTrace(Tracer::Clock::time_point start) : tr(start) {}

    Tracer tr;
    std::string record; ///< pre-rendered JSON object
    model::MeasuredBehavior mb;
    std::optional<sim::LatencyHistogram> latency;
};

/**
 * The traced run: the jobs campaign/phase1.cc builds (one warm-up job
 * per version, then that version's fault jobs on the same strand),
 * with every public call they make wrapped in a span, run by the same
 * campaign runner with @p workers threads. A job runs on one thread
 * from start to end, so its thread-local allocation count is exact.
 */
int
runTrace(const Workload &w, std::uint64_t seed, unsigned workers,
         const std::string &dbPath, const std::string &fullGrid, Json &j)
{
    campaign::Phase1Options opts = optionsFor(w, seed);
    Tracer::Clock::time_point start = Tracer::Clock::now();
    Tracer main(start);
    exp::BehaviorDb db;
    db.setFingerprint(campaign::phase1Fingerprint(opts));

    struct WarmState
    {
        std::unique_ptr<exp::Experiment> exp;
        sim::Snapshot snap;
    };
    std::deque<WarmState> warm;
    std::deque<JobTrace> traces; // stable references, one per job
    std::vector<campaign::Job> jobs;
    std::vector<std::pair<press::Version, fault::FaultKind>> keys;
    campaign::CampaignReport report;

    double cpu0 = cpuSeconds();
    main.span("campaign", "", [&] {
        for (press::Version v : opts.versions) {
            std::string strand = press::versionName(v);
            exp::ExperimentConfig warmCfg;
            main.span("phase1WarmConfig", strand, [&] {
                warmCfg = campaign::phase1WarmConfig(v, opts.faults, opts);
            });
            WarmState &ws = warm.emplace_back();
            JobTrace &wt = traces.emplace_back(start);
            campaign::Job wj;
            wj.label = strand + " warm-up";
            wj.seed = warmCfg.seed;
            wj.tag = campaign::kWarmupJobTag;
            wj.strand = "phase1/" + strand;
            wj.work = [&ws, &wt, warmCfg, strand,
                       v](const campaign::Job &) {
                Counters built, warmed;
                wt.tr.span("warm-up job", strand, [&] {
                    wt.tr.span("Experiment", strand, [&] {
                        ws.exp = std::make_unique<exp::Experiment>(warmCfg);
                    });
                    built = readCounters(*ws.exp);
                    wt.tr.span("warmUp", strand, [&] { ws.exp->warmUp(); });
                    warmed = readCounters(*ws.exp);
                    wt.tr.span("snapshot", strand,
                               [&] { ws.snap = ws.exp->snapshot(); });
                });
                Json r;
                r.open('{').key("kind").str("warmup");
                r.key("version").num(static_cast<int>(v));
                writeCounters(r, "built", built);
                writeCounters(r, "warmed", warmed);
                wt.record = r.close('}').text();
            };
            jobs.push_back(std::move(wj));
            keys.push_back({v, fault::FaultKind::LinkDown});

            for (fault::FaultKind k : opts.faults) {
                std::string point = strand + " x " + fault::faultName(k);
                exp::ExperimentConfig cfg;
                main.span("phase1Config", point, [&] {
                    cfg = campaign::phase1Config(v, k, opts);
                });
                JobTrace &pt = traces.emplace_back(start);
                bool last = k == opts.faults.back();
                campaign::Job job;
                job.label = point;
                job.seed = cfg.seed;
                job.tag = campaign::phase1Tag(v, k);
                job.strand = "phase1/" + strand;
                job.work = [&ws, &pt, &opts, cfg, point, last, v,
                            k](const campaign::Job &) {
                    if (!ws.exp || ws.snap.empty())
                        throw std::runtime_error(
                            "warm-up failed; cannot fork");
                    Counters before, after;
                    exp::ExperimentResult res;
                    pt.tr.span("fault job", point, [&] {
                        pt.tr.span("forkFrom", point,
                                   [&] { ws.exp->forkFrom(ws.snap); });
                        before = readCounters(*ws.exp);
                        pt.tr.span("injectAndMeasure", point, [&] {
                            res = ws.exp->injectAndMeasure(cfg.fault,
                                                           cfg.duration);
                        });
                        after = readCounters(*ws.exp);
                        pt.tr.span("extractBehavior", point, [&] {
                            exp::ExtractionParams p;
                            p.slo = opts.slo;
                            pt.mb = exp::extractBehavior(res, *cfg.fault,
                                                         p);
                        });
                        if (last) {
                            // As the campaign's last fault job does:
                            // release the snapshot, then the world.
                            ws.snap = sim::Snapshot{};
                            ws.exp.reset();
                        }
                    });
                    pt.latency = res.latency.window(
                        sim::LatencyStage::Total, res.injectAt,
                        res.runLength);
                    auto total = [&res](const sim::TimeSeries &s) {
                        return static_cast<double>(
                            s.total(res.injectAt, res.runLength));
                    };
                    Json r;
                    r.open('{').key("kind").str("point");
                    r.key("version").num(static_cast<int>(v));
                    r.key("fault").num(static_cast<int>(k));
                    r.key("offered").num(total(res.offered));
                    r.key("served").num(total(res.served));
                    r.key("failed").num(total(res.failed));
                    writeCounters(r, "start", before);
                    writeCounters(r, "end", after);
                    pt.record = r.close('}').text();
                };
                jobs.push_back(std::move(job));
                keys.push_back({v, k});
            }
        }

        campaign::RunnerConfig rc;
        rc.workers = workers;
        main.span("runCampaign", "",
                  [&] { report = campaign::runCampaign(jobs, rc); });
        for (std::size_t i = 0; i < jobs.size(); ++i)
            if (jobs[i].tag != campaign::kWarmupJobTag &&
                report.jobs[i].ok)
                db.set(keys[i].first, keys[i].second, traces[i].mb);
        main.span("BehaviorDb::save", "", [&] { db.save(dbPath); });
    });
    double total = main.now();
    double cpu = cpuSeconds() - cpu0;

    double evaluate = -1;
    if (!fullGrid.empty()) {
        double t0 = main.now();
        main.span("core.evaluate", "", [&] { evaluateModel(fullGrid); });
        evaluate = main.now() - t0;
    }

    std::optional<sim::LatencyHistogram> latency;
    for (const JobTrace &t : traces) {
        if (!t.latency)
            continue;
        if (latency)
            latency->merge(*t.latency);
        else
            latency = *t.latency;
    }

    j.key("total_s").num(total);
    j.key("cpu_s").num(cpu);
    if (evaluate >= 0)
        j.key("core_evaluate_s").num(evaluate);
    else
        j.key("core_evaluate_s").null();
    j.key("latency").open('{');
    j.key("p50_ms").num(latency ? latency->quantile(0.50) / 1000.0 : 0);
    j.key("p99_ms").num(latency ? latency->quantile(0.99) / 1000.0 : 0);
    j.close('}');

    j.key("jobs").open('[');
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        j.open('{').key("ok").boolean(report.jobs[i].ok);
        j.key("error").str(report.jobs[i].error);
        j.key("wall_s").num(report.jobs[i].wallSeconds);
        j.key("counters").raw(traces[i].record.empty() ? "null"
                                                       : traces[i].record);
        j.close('}');
    }
    j.close(']');

    // One span list: the main thread's spans, then each job's, with
    // every job's root span parented to the runCampaign span.
    j.key("spans").open('[');
    int runSpan = main.find("runCampaign");
    int offset = main.write(j, 0, -1, -1);
    for (std::size_t i = 0; i < traces.size(); ++i)
        offset = traces[i].tr.write(j, offset, runSpan,
                                    static_cast<int>(i));
    j.close(']');
    return 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: perfbench_campaign campaign|trace --workload NAME\n"
        "           --db PATH --report PATH [--seed S] [--jobs N]\n"
        "           [--full-grid CSV]\n"
        "workloads: steady-grid fork-fanout sessions-slo quick\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string mode = argv[1];
    std::string workload, dbPath, reportPath, fullGrid;
    std::uint64_t seed = 42;
    unsigned jobs = 4;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        std::string val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--db")
            dbPath = val;
        else if (arg == "--report")
            reportPath = val;
        else if (arg == "--full-grid")
            fullGrid = val;
        else if (arg == "--seed")
            seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--jobs")
            jobs = static_cast<unsigned>(
                std::strtoul(val.c_str(), nullptr, 10));
        else {
            usage();
            return 2;
        }
    }
    const Workload *w = findWorkload(workload);
    if (!w || dbPath.empty() || reportPath.empty() ||
        (mode != "campaign" && mode != "trace")) {
        usage();
        return 2;
    }

    Json j;
    j.open('{');
    j.key("mode").str(mode).key("workload").str(w->name);
    j.key("seed").num(static_cast<double>(seed));
    writeGrid(j, *w);
    int rc = mode == "campaign" ? runCampaign(*w, seed, jobs, dbPath, j)
                                : runTrace(*w, seed, jobs, dbPath, fullGrid, j);
    j.close('}');

    std::ofstream out(reportPath, std::ios::trunc);
    out << j.text() << "\n";
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", reportPath.c_str());
        return 1;
    }
    return rc;
}
