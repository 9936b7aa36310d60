/**
 * @file
 * The PRESS server process on one node.
 *
 * PRESS is a locality-conscious cluster web server: any node receives
 * client requests (round-robin DNS), parses them and either serves
 * locally or forwards to the node caching the file; caching decisions
 * are broadcast so every node knows what the others cache; load is
 * piggy-backed on every intra-cluster message.
 *
 * The server code is identical across the five versions of Table 1 —
 * the differences come from the communication substrate it is given
 * (TCP vs the three VIA modes), from whether the heartbeat protocol
 * runs, and from whether cached file pages are dynamically pinned
 * (VIA-PRESS-5).
 *
 * Failure semantics implemented from the paper:
 *  - a broken intra-cluster connection means "that node failed":
 *    exclude it and reconfigure the ring;
 *  - TCP-PRESS-HB additionally treats 3 missed heartbeats from the
 *    ring predecessor as failure and announces it to the others;
 *  - fatal communication-library errors (EFAULT, descriptor errors,
 *    stream desync, remote DMA errors) are handled fail-fast: the
 *    process terminates and the node's daemon restarts it;
 *  - reconfiguration happens only at process start-up and on failure
 *    detection — sub-clusters never merge back spontaneously, which
 *    is why link/switch faults leave the cluster splintered until an
 *    operator resets it;
 *  - rejoin over TCP uses the broadcast-to-lowest-ID protocol, whose
 *    "disregard joiners we still believe are members" rule recreates
 *    the paper's rejoin race after node crashes;
 *  - rejoin over VIA simply re-establishes connections.
 */

#ifndef PERFORMA_PRESS_SERVER_HH
#define PERFORMA_PRESS_SERVER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <memory_resource>
#include <set>
#include <string>
#include <vector>

#include "os/node.hh"
#include "os/service.hh"
#include "press/cache.hh"
#include "press/config.hh"
#include "press/directory.hh"
#include "press/disk.hh"
#include "press/markers.hh"
#include "press/messages.hh"
#include "press/server_stats.hh"
#include "proto/comm.hh"
#include "sim/ring_buffer.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::press {

/**
 * The mutable state of a PRESS server process beside its cache and
 * disks: membership, directory, pending work, heartbeat and counters.
 * A snapshot copies it whole.
 */
struct ServerState
{
    /** A request forwarded to @c target at @c sentAt. The client's
     *  request (with its send time) is kept whole, for the reply
     *  and for a re-dispatch when the target node dies. */
    struct PendingFwd
    {
        ClientRequestBody req;
        sim::NodeId target;
        sim::Tick sentAt;
    };
    using PendingFwdMap = std::pmr::map<sim::RequestId, PendingFwd>;

    struct MainItem
    {
        sim::Tick cost;
        sim::SmallFn<void()> fn;
    };

    /** @p fwd_pool backs pendingFwd_; a copy's map draws from the
     *  default resource, and assigning one keeps the target's pool. */
    ServerState(std::size_t num_nodes, std::pmr::memory_resource *fwd_pool)
        : directory_(num_nodes), pendingFwd_(fwd_pool)
    {}

    // process state
    bool alive_ = false;
    bool stopped_ = false;
    bool coldStart_ = true;
    std::uint64_t epoch_ = 0;

    // cluster state
    std::set<sim::NodeId> members_;
    std::map<sim::NodeId, std::uint32_t> loads_;
    Directory directory_;

    // request state
    // Ordered: excludeNode() re-dispatches entries in iteration order
    // (scheduling main-loop work per entry) and sweepTick() walks it,
    // so the order must be deterministic for byte-identical runs. Its
    // nodes come from a per-server pool: a forward and its reply
    // recycle one node instead of a malloc/free pair.
    PendingFwdMap pendingFwd_;
    std::size_t outstanding_ = 0;

    // blocking-send state
    std::deque<std::pair<sim::NodeId, proto::AppMessage>> pendingSends_;
    bool stalled_ = false;
    /** Bad-parameter fault for the next send call (all zero: none).
     *  A restart keeps it: the trap sits in the library, not the
     *  process. */
    proto::SendParams badParams_;

    // main-loop queue
    sim::RingBuffer<MainItem> mainQ_;
    /** The item running on the CPU; parked here so its completion
     *  event captures only {this, epoch}. */
    sim::SmallFn<void()> mainInflight_;
    bool mainBusy_ = false;

    // join state
    int joinTries_ = 0;
    bool joinResponded_ = false;

    // heartbeat state
    sim::Tick lastHbAt_ = 0;

    // stats
    ServerStats stats_;
    sim::Tick stallStartedAt_ = 0;
};

/** The pool a server's pendingFwd_ draws its nodes from; a base ahead
 *  of ServerState, so it is built before the map and outlives it. */
struct FwdPool
{
    std::pmr::unsynchronized_pool_resource fwdPool_;
};

/**
 * One PRESS server process (see file comment).
 */
class Server : public osim::Service, private FwdPool, private ServerState
{
  public:
    /**
     * @param node Host node (the server registers as its service).
     * @param cfg Deployment configuration.
     * @param comm Communication endpoint (owned).
     * @param markers The cluster's marker log: the server appends its
     * Started, MemberUp, Exclude, FailFast and GiveUp markers.
     */
    Server(osim::Node &node, const PressConfig &cfg,
           std::unique_ptr<proto::ClusterComm> comm, MarkerLog &markers);

    // osim::Service interface -----------------------------------------
    void start() override;
    void sigStop() override;
    void sigCont() override;
    void terminate(bool silent) override;
    bool alive() const override { return alive_; }

    /** Corrupt the parameters of the next send call with @p p (a
     *  bad-parameter fault); the call after it is clean again. */
    void armBadParams(const proto::SendParams &p) { badParams_ = p; }
    /** The communication endpoint (snapshot registration). */
    proto::ClusterComm &comm() { return *comm_; }

    /** Next start() performs initial cluster formation, not a rejoin. */
    void markColdStart() { coldStart_ = true; }

    // Introspection (tests, experiments) ------------------------------
    const std::set<sim::NodeId> &members() const { return members_; }
    bool stoppedBySignal() const { return stopped_; }
    bool stalled() const { return stalled_; }
    const proto::SendParams &badParams() const { return badParams_; }
    std::size_t cachedFiles() const { return cache_ ? cache_->size() : 0; }
    /** File ids the cache's link arrays cover. */
    std::size_t cacheTableSize() const
    {
        return cache_ ? cache_->tableSize() : 0;
    }
    std::uint64_t served() const { return stats_.responses; }

    /** Monotonic per-server counters (survive process restarts). */
    const ServerStats &stats() const { return stats_; }
    const PressConfig &config() const { return cfg_; }
    osim::Node &node() { return node_; }

    /**
     * Pre-warm: place @p f directly in the cache and directory
     * (steady-state initialization used by experiments to skip long
     * warm-up phases). Call on every server: the caching node passes
     * itself as @p owner.
     */
    void prewarmFile(sim::FileId f, sim::NodeId owner);

    /** Size the directory and the cache's link arrays for file ids
     *  below @p files once, before prewarmFile() fills them. */
    void reserveFiles(std::size_t files);

    /** Snapshot state: everything mutable in the process — the server
     *  state (with the armed bad-parameter fault), the disks and the
     *  cache contents. The comm endpoint below us saves itself via its
     *  own hook. */
    struct Saved;

    Saved save() const;
    void restore(const Saved &s);

  private:
    // -- client side ---------------------------------------------------
    void onClientFrame(net::Frame &&f);
    void dispatch(const ClientRequestBody &req);
    void serveFromCache(const ClientRequestBody &req);
    void serveFromDisk(const ClientRequestBody &req);
    void forwardRequest(const ClientRequestBody &req, sim::NodeId target);
    void respondToClient(const ClientRequestBody &req);
    void finishRequest();

    // -- intra-cluster messages -----------------------------------------
    void onMessage(sim::NodeId peer, proto::AppMessage &&msg);
    void handleFwdRequest(sim::NodeId peer, const FwdRequestBody &body);
    void handleFileData(const FileDataBody &body);
    void sendFileData(sim::NodeId initial, sim::RequestId req,
                      sim::FileId file, std::uint32_t client_port);

    // -- membership / reconfiguration ----------------------------------
    void onPeerConnected(sim::NodeId peer);
    void onPeerBroken(sim::NodeId peer, proto::BreakReason reason);
    void excludeNode(sim::NodeId failed);
    void recomputeRing();
    sim::NodeId ringSuccessor() const;
    sim::NodeId ringPredecessor() const;

    // -- rejoin ----------------------------------------------------------
    void beginColdFormation();
    void beginJoinProtocol();
    void joinTick();
    void onDatagram(sim::NodeId peer, std::uint32_t kind,
                    sim::RcAny payload);

    // -- heartbeats -------------------------------------------------------
    void hbSendTick();
    void hbCheckTick();

    // -- robust membership extension ---------------------------------------
    /**
     * Periodically probe configured nodes missing from the member set
     * and reconnect when they become reachable again (the "rigorous
     * membership algorithm" the paper calls for in Section 6.2).
     */
    void membershipProbeTick();

    // -- sending -----------------------------------------------------------
    /**
     * Send with main-loop blocking semantics: on WouldBlock the whole
     * main thread stalls (CPU paused) until the substrate reports
     * space again; queued messages flush in order.
     */
    void sendOrQueue(sim::NodeId peer, proto::AppMessage msg);
    void flushPending();
    /** One send call, carrying the armed bad-parameter fault. On
     *  WouldBlock @p msg is queued first and the main thread stalls.
     *  @return false once the thread stalled or fail-fasted. */
    bool sendNow(sim::NodeId peer, proto::AppMessage &msg);
    void broadcastCacheUpdate(sim::FileId file, bool added);
    void sendCacheInfoTo(sim::NodeId peer);
    void onSendReady();
    void failFast(const std::string &reason);
    /** Append a marker observed by this server, stamped now. */
    void mark(MarkerKind kind, sim::NodeId other = sim::invalidNode,
              std::string detail = {});

    // -- cache helpers ------------------------------------------------------
    /** Insert into the local cache, broadcasting insert + evictions. */
    void cacheInsert(sim::FileId f);
    /** The node of @p nodes passing @p keep with the minimum (load,
     *  node id) pair, or invalidNode when none passes. */
    template <typename Nodes, typename Keep>
    sim::NodeId leastLoaded(const Nodes &nodes, Keep keep) const;
    std::uint32_t loadOf(sim::NodeId n) const;

    // -- main loop ---------------------------------------------------------
    /**
     * Queue work for the main coordinating thread. The main loop
     * stops draining while the thread is blocked on a send
     * (@c stalled_) or SIGSTOPped; kernel and helper-thread work
     * (stack deliveries, acks, credit returns) keeps running on the
     * CPU regardless, mirroring PRESS's helper-thread structure.
     */
    void mainExec(sim::Tick cost, sim::SmallFn<void()> fn);
    void pumpMain();

    // -- lifecycle helpers -----------------------------------------------
    /** Schedule @p fn, skipped if the process restarted meanwhile. */
    template <typename F> void scheduleEpoch(sim::Tick delay, F fn);
    void sweepTick();

    /**
     * (Re)create the cache with the version-appropriate pin hooks.
     * Used by start(), and by a snapshot restore that finds no cache,
     * so a restored cache has the exact hook closures a fresh start
     * installs. The new cache's link arrays start at the size of the
     * one it replaces.
     */
    void makeFreshCache();

    osim::Node &node_;
    PressConfig cfg_;
    std::unique_ptr<proto::ClusterComm> comm_;
    MarkerLog &markers_;

    std::unique_ptr<FileCache> cache_;
    std::unique_ptr<DiskArray> disk_;
};

struct Server::Saved : ServerState
{
    DiskArray::Saved disk;
    bool hasCache;                       ///< cache_ existed (post-start)
    std::vector<sim::FileId> cacheFiles; ///< MRU-to-LRU contents
};

} // namespace performa::press

#endif // PERFORMA_PRESS_SERVER_HH
