#include "press/server.hh"

#include <algorithm>
#include <utility>

#include "proto/via.hh"
#include "sim/logging.hh"

namespace performa::press {

Server::Server(osim::Node &node, const PressConfig &cfg,
               std::unique_ptr<proto::ClusterComm> comm, MarkerLog &markers)
    : ServerState(cfg.numNodes, &fwdPool_), node_(node), cfg_(cfg),
      comm_(std::move(comm)), markers_(markers)
{
    disk_ = std::make_unique<DiskArray>(node_.simulation(),
                                        cfg_.disksPerNode, cfg_.diskSeek,
                                        cfg_.diskBytesPerUsec);

    node_.clientNet().setHandler(node_.id(),
        [this](net::Frame &&f) { onClientFrame(std::move(f)); });

    proto::CommCallbacks cbs;
    cbs.onMessage = [this](sim::NodeId peer, proto::AppMessage &&m) {
        onMessage(peer, std::move(m));
    };
    cbs.onPeerConnected = [this](sim::NodeId peer) {
        if (alive_)
            onPeerConnected(peer);
    };
    cbs.onConnectFailed = [](sim::NodeId) {
        // The peer is down or unreachable: it is simply not a member.
    };
    cbs.onPeerBroken = [this](sim::NodeId peer, proto::BreakReason r) {
        if (alive_)
            onPeerBroken(peer, r);
    };
    cbs.onSendReady = [this] {
        if (alive_)
            onSendReady();
    };
    cbs.onFatalError = [this](const std::string &reason) {
        if (alive_)
            failFast(reason);
    };
    cbs.onDatagram = [this](sim::NodeId peer, std::uint32_t kind,
                            sim::RcAny payload) {
        if (alive_ && !stopped_)
            onDatagram(peer, kind, std::move(payload));
    };
    comm_->setCallbacks(std::move(cbs));

    node_.attachService(this);
}

void
Server::mark(MarkerKind kind, sim::NodeId other, std::string detail)
{
    markers_.add(node_.simulation().now(), kind, node_.id(), other,
                 std::move(detail));
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

template <typename F>
void
Server::scheduleEpoch(sim::Tick delay, F fn)
{
    std::uint64_t e = epoch_;
    node_.simulation().scheduleIn(delay, [this, e, fn = std::move(fn)] {
        if (e == epoch_ && alive_)
            fn();
    });
}

void
Server::makeFreshCache()
{
    std::size_t files = cacheTableSize();
    cache_ = std::make_unique<FileCache>(cfg_.cacheBytes, cfg_.fileBytes);
    cache_->reserve(files);
    if (usesDynamicPinning(cfg_.version) && !cfg_.staticPinning) {
        auto *via = dynamic_cast<proto::ViaComm *>(comm_.get());
        if (!via)
            PANIC("dynamic pinning requires the VIA substrate");
        cache_->setPinHooks(
            [this, via](std::uint64_t bytes) {
                bool ok = via->registerMemory(bytes);
                if (!ok)
                    ++stats_.pinFailures;
                return ok;
            },
            [via](std::uint64_t bytes) { via->deregisterMemory(bytes); });
    }
}

void
Server::start()
{
    ++epoch_;
    alive_ = true;
    stopped_ = false;
    stalled_ = false;
    outstanding_ = 0;
    pendingFwd_.clear();
    pendingSends_.clear();
    directory_.clear();
    members_.clear();
    members_.insert(node_.id());
    loads_.clear();
    joinTries_ = 0;
    joinResponded_ = false;
    lastHbAt_ = node_.simulation().now();

    // Fresh process: fresh cache. For VIA-PRESS-5 every cached file's
    // pages are registered (pinned) with the VIA provider — either
    // per file (the paper's implementation, exposed to pin
    // exhaustion) or as one static region at start-up (the Section 7
    // pre-allocation extension).
    makeFreshCache();
    auto *via = dynamic_cast<proto::ViaComm *>(comm_.get());

    comm_->start();
    if (via && via->started() && usesDynamicPinning(cfg_.version) &&
        cfg_.staticPinning) {
        // Pre-pin the whole cache region once; later inserts need no
        // registration calls, so pin-exhaustion faults cannot shrink
        // the cache.
        if (!via->registerMemory(cfg_.cacheBytes)) {
            failFast("VIA static cache registration failed");
            return;
        }
    }
    if (via && !via->started()) {
        // Start-up registration failed (pin budget exhausted): the
        // process cannot run; the daemon will retry.
        failFast("VIA registration failed at start-up");
        return;
    }

    if (coldStart_) {
        coldStart_ = false;
        beginColdFormation();
    } else if (isVia(cfg_.version)) {
        // "The rejoining node simply tries to reestablish its
        // connection with all other nodes."
        for (sim::NodeId p = 0; p < cfg_.numNodes; ++p) {
            if (p != node_.id())
                comm_->connect(p);
        }
    } else {
        beginJoinProtocol();
    }

    if (usesHeartbeats(cfg_.version)) {
        scheduleEpoch(cfg_.hbPeriod, [this] { hbSendTick(); });
        scheduleEpoch(cfg_.hbPeriod * 2, [this] { hbCheckTick(); });
    }
    if (cfg_.robustMembership) {
        scheduleEpoch(cfg_.membershipProbeInterval,
                      [this] { membershipProbeTick(); });
    }
    scheduleEpoch(sim::sec(2), [this] { sweepTick(); });

    mark(MarkerKind::Started);
}

void
Server::terminate(bool silent)
{
    if (!alive_)
        return;
    ++epoch_;
    alive_ = false;
    if (stalled_)
        stats_.stalledTime += node_.simulation().now() - stallStartedAt_;
    stalled_ = false;
    stopped_ = false;
    mainQ_.clear();
    mainInflight_.reset();
    mainBusy_ = false;
    pendingSends_.clear();
    pendingFwd_.clear();
    outstanding_ = 0;
    if (cache_)
        cache_->clear();
    if (silent)
        comm_->vanish();
    else
        comm_->shutdown();
}

void
Server::sigStop()
{
    if (!alive_ || stopped_)
        return;
    stopped_ = true;
    comm_->setAppReceiving(false);
}

void
Server::sigCont()
{
    if (!alive_ || !stopped_)
        return;
    stopped_ = false;
    comm_->setAppReceiving(true);
    pumpMain();
}

void
Server::failFast(const std::string &reason)
{
    mark(MarkerKind::FailFast, sim::invalidNode, reason);
    terminate(/*silent=*/false);
    node_.serviceFailedFast();
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

void
Server::onClientFrame(net::Frame &&f)
{
    if (!alive_ || stopped_ || !node_.up())
        return; // client connect times out
    if (f.kind != ClientRequest || !f.payload)
        return;
    if (outstanding_ >= cfg_.acceptCap) {
        ++stats_.refused;
        return; // listen backlog full: connection refused/dropped
    }
    ++outstanding_;
    ++stats_.accepted;
    ClientRequestBody req = *f.payload.get<ClientRequestBody>();
    req.acceptedAt = node_.simulation().now();
    mainExec(cfg_.costs.acceptParse + cfg_.costs.clientConn,
             [this, req] { dispatch(req); });
}

sim::Tick
clientSendCost(const PressCosts &costs, std::uint64_t bytes)
{
    return costs.clientSendFixed +
           static_cast<sim::Tick>(costs.clientSendPerKb *
                                  static_cast<double>(bytes) / 1024.0);
}

void
Server::dispatch(const ClientRequestBody &req)
{
    if (cache_->contains(req.file)) {
        ++stats_.localHits;
        serveFromCache(req);
        return;
    }

    // Locality-conscious distribution: forward to a node caching the
    // file, least-loaded first.
    sim::NodeId holder = leastLoaded(
        directory_.nodesFor(req.file), [this](sim::NodeId n) {
            return n != node_.id() && members_.count(n) != 0;
        });
    if (holder != sim::invalidNode) {
        ++stats_.forwarded;
        forwardRequest(req, holder);
        return;
    }

    // Nobody caches it: the least-loaded member fetches it from disk
    // and becomes its caching node.
    sim::NodeId svc =
        leastLoaded(members_, [](sim::NodeId) { return true; });
    if (svc == node_.id()) {
        ++stats_.localMisses;
        serveFromDisk(req);
    } else {
        ++stats_.forwarded;
        forwardRequest(req, svc);
    }
}

void
Server::serveFromCache(const ClientRequestBody &req)
{
    cache_->touch(req.file);
    sim::Tick svc = node_.simulation().now();
    std::uint64_t resp = cfg_.sizeOf(req.file) + cfg_.fileRespOverheadBytes;
    mainExec(cfg_.costs.cacheRead + clientSendCost(cfg_.costs, resp),
        [this, req, svc] {
            respondToClient(req, svc);
            finishRequest();
        });
}

void
Server::serveFromDisk(const ClientRequestBody &req)
{
    std::uint64_t e = epoch_;
    sim::Tick svc = node_.simulation().now();
    disk_->read(cfg_.sizeOf(req.file), [this, e, req, svc] {
        if (e != epoch_ || !alive_)
            return;
        std::uint64_t resp =
            cfg_.sizeOf(req.file) + cfg_.fileRespOverheadBytes;
        mainExec(cfg_.costs.diskReadCpu + cfg_.costs.cacheRead +
                 clientSendCost(cfg_.costs, resp),
            [this, req, svc] {
                cacheInsert(req.file);
                respondToClient(req, svc);
                finishRequest();
            });
    });
}

void
Server::forwardRequest(const ClientRequestBody &req, sim::NodeId target)
{
    pendingFwd_[req.req] = {req, target, node_.simulation().now()};

    FwdRequestBody body;
    body.senderLoad = static_cast<std::uint32_t>(outstanding_);
    body.req = req.req;
    body.file = req.file;
    body.initial = node_.id();
    body.clientPort = req.replyPort;

    proto::AppMessage m;
    m.type = MsgFwdRequest;
    m.bytes = cfg_.fwdReqBytes;
    m.body = node_.simulation().makePayload<FwdRequestBody>(body);

    mainExec(comm_->sendCost(m.bytes),
        [this, target, m = std::move(m)]() mutable {
            sendOrQueue(target, std::move(m));
        });
}

void
Server::respondToClient(const ClientRequestBody &req,
                        sim::Tick service_start)
{
    net::Frame f;
    f.srcPort = node_.id();
    f.dstPort = req.replyPort;
    f.proto = net::Proto::Client;
    f.kind = ClientResponse;
    f.bytes = cfg_.sizeOf(req.file) + cfg_.fileRespOverheadBytes;
    auto body = node_.simulation().makePayload<ClientResponseBody>();
    body->req = req.req;
    body->sentAt = req.sentAt;
    body->acceptedAt = req.acceptedAt;
    body->serviceStartAt = service_start;
    f.payload = std::move(body);
    node_.clientNet().send(std::move(f));
    ++stats_.responses;
}

void
Server::finishRequest()
{
    if (outstanding_ > 0)
        --outstanding_;
}

// ---------------------------------------------------------------------
// Intra-cluster messages
// ---------------------------------------------------------------------

void
Server::onMessage(sim::NodeId peer, proto::AppMessage &&msg)
{
    if (!alive_)
        return;
    // The receive helper thread consumed the message: return the
    // descriptor/credit (PRESS's explicit flow-control messages).
    comm_->consumed(peer);

    if (!members_.count(peer))
        return; // stale traffic from an excluded node

    switch (msg.type) {
      case MsgFwdRequest: {
        auto *body = msg.body.get<FwdRequestBody>();
        loads_[peer] = body->senderLoad;
        handleFwdRequest(peer, *body);
        break;
      }
      case MsgFileData: {
        auto *body = msg.body.get<FileDataBody>();
        loads_[peer] = body->senderLoad;
        handleFileData(*body);
        break;
      }
      case MsgCacheUpdate: {
        auto *body = msg.body.get<CacheUpdateBody>();
        loads_[peer] = body->senderLoad;
        CacheUpdateBody b = *body;
        mainExec(cfg_.costs.broadcastHandle, [this, b] {
            if (b.added)
                directory_.add(b.file, b.node);
            else
                directory_.remove(b.file, b.node);
        });
        break;
      }
      case MsgCacheInfo: {
        // The handler runs later on the CPU: keep an owning handle.
        auto b = msg.body.cast<CacheInfoBody>();
        loads_[peer] = b->senderLoad;
        sim::Tick cost = sim::usec(1) + b->files.size() / 5;
        mainExec(cost, [this, b] {
            for (sim::FileId f : b->files)
                directory_.add(f, b->node);
        });
        break;
      }
      case MsgMemberDown: {
        auto *body = msg.body.get<MemberDownBody>();
        loads_[peer] = body->senderLoad;
        if (members_.count(body->failed) && body->failed != node_.id())
            excludeNode(body->failed);
        break;
      }
      default:
        PANIC("press: unknown message type ", msg.type);
    }
}

void
Server::handleFwdRequest(sim::NodeId peer, const FwdRequestBody &body)
{
    sim::Tick svc = node_.simulation().now();
    if (cache_->contains(body.file)) {
        ++stats_.fwdServed;
        cache_->touch(body.file);
        std::uint64_t data =
            cfg_.sizeOf(body.file) + cfg_.fileRespOverheadBytes;
        FwdRequestBody b = body;
        mainExec(cfg_.costs.cacheRead + comm_->sendCost(data),
            [this, b, svc] {
                sendFileData(b.initial, b.req, b.file, b.clientPort, svc);
            });
        (void)peer;
        return;
    }

    // Stale directory at the initial node, or we were picked as the
    // caching node: fetch from disk and start caching the file.
    ++stats_.fwdMisses;
    std::uint64_t e = epoch_;
    FwdRequestBody b = body;
    disk_->read(cfg_.sizeOf(body.file), [this, e, b, svc] {
        if (e != epoch_ || !alive_)
            return;
        std::uint64_t data =
            cfg_.sizeOf(b.file) + cfg_.fileRespOverheadBytes;
        mainExec(cfg_.costs.diskReadCpu + comm_->sendCost(data),
            [this, b, svc] {
                cacheInsert(b.file);
                sendFileData(b.initial, b.req, b.file, b.clientPort, svc);
            });
    });
}

void
Server::sendFileData(sim::NodeId initial, sim::RequestId req,
                     sim::FileId file, std::uint32_t client_port,
                     sim::Tick service_start)
{
    FileDataBody body;
    body.senderLoad = static_cast<std::uint32_t>(outstanding_);
    body.req = req;
    body.file = file;
    body.clientPort = client_port;
    body.serviceStartAt = service_start;

    proto::AppMessage m;
    m.type = MsgFileData;
    m.bytes = cfg_.sizeOf(file) + cfg_.fileRespOverheadBytes;
    m.body = node_.simulation().makePayload<FileDataBody>(body);
    sendOrQueue(initial, std::move(m));
}

void
Server::handleFileData(const FileDataBody &body)
{
    auto it = pendingFwd_.find(body.req);
    if (it == pendingFwd_.end())
        return; // request was re-dispatched or swept; ignore late data
    ClientRequestBody req = it->second.req;
    pendingFwd_.erase(it);

    std::uint64_t resp = cfg_.sizeOf(req.file) + cfg_.fileRespOverheadBytes;
    sim::Tick svc = body.serviceStartAt;
    mainExec(clientSendCost(cfg_.costs, resp),
        [this, req, svc] {
            respondToClient(req, svc);
            finishRequest();
        });
}

// ---------------------------------------------------------------------
// Membership and reconfiguration
// ---------------------------------------------------------------------

void
Server::onPeerConnected(sim::NodeId peer)
{
    bool fresh = members_.insert(peer).second;
    loads_[peer] = 0;
    recomputeRing();
    mark(MarkerKind::MemberUp, peer);
    if (fresh && cache_ && cache_->size() > 0)
        sendCacheInfoTo(peer);
}

void
Server::onPeerBroken(sim::NodeId peer, proto::BreakReason)
{
    if (members_.count(peer))
        excludeNode(peer);
}

void
Server::excludeNode(sim::NodeId failed)
{
    members_.erase(failed);
    directory_.purgeNode(failed);
    loads_.erase(failed);
    comm_->disconnect(failed);
    recomputeRing();

    // Drop queued traffic to the dead node.
    std::erase_if(pendingSends_,
                  [failed](const auto &p) { return p.first == failed; });

    // Re-dispatch in-flight requests that were forwarded to it.
    std::vector<ClientRequestBody> redo;
    for (auto it = pendingFwd_.begin(); it != pendingFwd_.end();) {
        if (it->second.target == failed) {
            redo.push_back(it->second.req);
            it = pendingFwd_.erase(it);
        } else {
            ++it;
        }
    }
    for (const auto &req : redo)
        mainExec(sim::usec(5), [this, req] { dispatch(req); });

    // If the main loop was stalled on a send, unstick it: the queued
    // sends to the dead peer were just dropped, and the blocked one
    // (if it targeted this peer) now fails with NotConnected.
    if (stalled_) {
        stalled_ = false;
        stats_.stalledTime += node_.simulation().now() - stallStartedAt_;
        flushPending();
        pumpMain();
    }

    mark(MarkerKind::Exclude, failed);
}

void
Server::recomputeRing()
{
    lastHbAt_ = node_.simulation().now();
}

sim::NodeId
Server::ringSuccessor() const
{
    if (members_.size() < 2)
        return sim::invalidNode;
    auto it = members_.upper_bound(node_.id());
    if (it == members_.end())
        it = members_.begin();
    return *it;
}

sim::NodeId
Server::ringPredecessor() const
{
    if (members_.size() < 2)
        return sim::invalidNode;
    auto it = members_.find(node_.id());
    if (it == members_.begin())
        return *members_.rbegin();
    return *std::prev(it);
}

// ---------------------------------------------------------------------
// Cold formation and rejoin
// ---------------------------------------------------------------------

void
Server::beginColdFormation()
{
    for (sim::NodeId p = 0; p < cfg_.numNodes; ++p) {
        if (p < node_.id())
            comm_->connect(p);
    }
}

void
Server::beginJoinProtocol()
{
    joinTries_ = 0;
    joinResponded_ = false;
    joinTick();
}

void
Server::joinTick()
{
    if (joinResponded_)
        return;
    if (joinTries_ >= cfg_.joinAttempts) {
        // "After the recovered node gives up trying to rejoin": it
        // keeps serving as an independent singleton until an operator
        // intervenes.
        mark(MarkerKind::GiveUp);
        return;
    }
    ++joinTries_;
    for (sim::NodeId p = 0; p < cfg_.numNodes; ++p) {
        if (p != node_.id())
            comm_->sendDatagram(p, DgJoinReq);
    }
    scheduleEpoch(cfg_.joinRetryInterval, [this] { joinTick(); });
}

void
Server::onDatagram(sim::NodeId peer, std::uint32_t kind,
                   sim::RcAny payload)
{
    switch (kind) {
      case DgHeartbeat:
        if (peer == ringPredecessor())
            lastHbAt_ = node_.simulation().now();
        break;
      case DgJoinReq: {
        if (members_.count(peer)) {
            // The joiner is still in our member list: we have not yet
            // detected its crash, so its rejoin messages are
            // disregarded (the paper's rejoin race).
            return;
        }
        if (*members_.begin() != node_.id())
            return; // only the lowest-ID active member replies
        auto resp = node_.simulation().makePayload<JoinRespBody>();
        resp->members.assign(members_.begin(), members_.end());
        comm_->sendDatagram(peer, DgJoinResp, std::move(resp));
        break;
      }
      case DgJoinResp: {
        if (joinResponded_ || !payload)
            return;
        joinResponded_ = true;
        auto *resp = payload.get<JoinRespBody>();
        for (sim::NodeId m : resp->members) {
            if (m != node_.id())
                comm_->connect(m);
        }
        break;
      }
      default:
        break;
    }
}

// ---------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------

void
Server::hbSendTick()
{
    scheduleEpoch(cfg_.hbPeriod, [this] { hbSendTick(); });
    if (stopped_ || !node_.up())
        return;
    sim::NodeId succ = ringSuccessor();
    if (succ != sim::invalidNode)
        comm_->sendDatagram(succ, DgHeartbeat);
}

void
Server::hbCheckTick()
{
    scheduleEpoch(cfg_.hbPeriod, [this] { hbCheckTick(); });
    if (stopped_ || !node_.up())
        return;
    sim::NodeId pred = ringPredecessor();
    if (pred == sim::invalidNode)
        return;
    sim::Tick now = node_.simulation().now();
    sim::Tick limit =
        cfg_.hbPeriod * static_cast<sim::Tick>(cfg_.hbMissThreshold);
    if (now - lastHbAt_ <= limit)
        return;

    // Three consecutive heartbeats missed: declare the predecessor
    // failed and tell the rest of the (believed) cluster.
    excludeNode(pred);
    std::vector<sim::NodeId> targets(members_.begin(), members_.end());
    for (sim::NodeId m : targets) {
        if (m == node_.id() || !alive_)
            continue;
        MemberDownBody body;
        body.senderLoad = static_cast<std::uint32_t>(outstanding_);
        body.failed = pred;
        proto::AppMessage msg;
        msg.type = MsgMemberDown;
        msg.bytes = cfg_.cacheUpdateBytes;
        msg.body = node_.simulation().makePayload<MemberDownBody>(body);
        sendOrQueue(m, std::move(msg));
    }
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

void
Server::mainExec(sim::Tick cost, sim::SmallFn<void()> fn)
{
    if (!alive_)
        return;
    mainQ_.emplace_back(cost, std::move(fn));
    pumpMain();
}

void
Server::pumpMain()
{
    if (mainBusy_ || stalled_ || stopped_ || !alive_ || mainQ_.empty())
        return;
    mainBusy_ = true;
    MainItem &item = mainQ_.front();
    sim::Tick cost = item.cost;
    mainInflight_ = std::move(item.fn);
    mainQ_.pop_front();
    std::uint64_t e = epoch_;
    node_.cpu().exec(cost, [this, e] {
        if (e != epoch_)
            return; // process restarted; terminate() reset mainBusy_
        mainBusy_ = false;
        // Move out before invoking: the item may queue more work,
        // which starts the next item and overwrites mainInflight_.
        sim::SmallFn<void()> fn = std::move(mainInflight_);
        if (alive_)
            fn.consume();
        pumpMain();
    });
}

// ---------------------------------------------------------------------
// Robust membership extension
// ---------------------------------------------------------------------

void
Server::membershipProbeTick()
{
    scheduleEpoch(cfg_.membershipProbeInterval,
                  [this] { membershipProbeTick(); });
    if (stopped_ || !node_.up())
        return;
    for (sim::NodeId p = 0; p < cfg_.numNodes; ++p) {
        // Only the higher-ID side of a missing pair probes (the same
        // asymmetry as cold-start formation); simultaneous connects
        // from both ends would race each other's endpoint state.
        if (p >= node_.id() || members_.count(p) || comm_->connected(p))
            continue;
        // Reconnection doubles as the membership repair: established
        // connections re-add the peer and exchange caching info
        // through the regular onPeerConnected path.
        comm_->connect(p);
    }
}

// ---------------------------------------------------------------------
// Sending with main-loop blocking semantics
// ---------------------------------------------------------------------

void
Server::sendOrQueue(sim::NodeId peer, proto::AppMessage msg)
{
    if (!alive_)
        return;
    if (stalled_)
        pendingSends_.emplace_back(peer, std::move(msg));
    else
        sendNow(peer, msg);
}

void
Server::onSendReady()
{
    if (!stalled_)
        return;
    stalled_ = false;
    stats_.stalledTime += node_.simulation().now() - stallStartedAt_;
    flushPending();
    pumpMain();
}

void
Server::flushPending()
{
    while (!pendingSends_.empty() && !stalled_ && alive_) {
        auto [peer, msg] = std::move(pendingSends_.front());
        pendingSends_.pop_front();
        if (!sendNow(peer, msg))
            return;
    }
}

bool
Server::sendNow(sim::NodeId peer, proto::AppMessage &msg)
{
    switch (comm_->send(peer, msg, std::exchange(badParams_, {}))) {
      case proto::SendStatus::Ok:
      case proto::SendStatus::NotConnected: // membership cleans this up
        return true;
      case proto::SendStatus::WouldBlock:
        // The send-thread queue is full: the main thread blocks.
        pendingSends_.emplace_front(peer, std::move(msg));
        stalled_ = true;
        ++stats_.stallEvents;
        stallStartedAt_ = node_.simulation().now();
        return false;
      case proto::SendStatus::Efault:
        failFast("send() returned EFAULT (NULL data pointer)");
        return false;
      case proto::SendStatus::Fatal:
        failFast("communication library descriptor error");
        return false;
    }
    return false;
}

void
Server::broadcastCacheUpdate(sim::FileId file, bool added)
{
    // Walk members by key, not by iterator, and stop once the process
    // is gone: a fatal send below fail-fasts it mid-loop.
    for (auto it = members_.begin(); it != members_.end() && alive_;) {
        sim::NodeId m = *it;
        if (m != node_.id()) {
            CacheUpdateBody body;
            body.senderLoad = static_cast<std::uint32_t>(outstanding_);
            body.node = node_.id();
            body.file = file;
            body.added = added;
            proto::AppMessage msg;
            msg.type = MsgCacheUpdate;
            msg.bytes = cfg_.cacheUpdateBytes;
            msg.body =
                node_.simulation().makePayload<CacheUpdateBody>(body);
            ++stats_.broadcastsSent;
            sendOrQueue(m, std::move(msg));
        }
        it = members_.upper_bound(m);
    }
}

void
Server::sendCacheInfoTo(sim::NodeId peer)
{
    std::size_t per_chunk =
        std::max<std::size_t>(1, cfg_.cacheInfoChunkBytes /
                                     cfg_.cacheInfoEntryBytes);
    // Walk a copy of the cache contents: a send below can fail fatally
    // (an armed bad-parameter fault), which terminates the process and
    // clears the cache mid-loop.
    std::vector<sim::FileId> files = cache_->files();
    CacheInfoBody chunk;
    chunk.node = node_.id();
    for (sim::FileId f : files) {
        chunk.files.push_back(f);
        if (chunk.files.size() >= per_chunk) {
            proto::AppMessage msg;
            msg.type = MsgCacheInfo;
            msg.bytes = chunk.files.size() * cfg_.cacheInfoEntryBytes;
            chunk.senderLoad = static_cast<std::uint32_t>(outstanding_);
            msg.body = node_.simulation().makePayload<CacheInfoBody>(chunk);
            sendOrQueue(peer, std::move(msg));
            if (!alive_)
                return; // the send fail-fasted the process
            chunk.files.clear();
        }
    }
    if (alive_ && !chunk.files.empty()) {
        proto::AppMessage msg;
        msg.type = MsgCacheInfo;
        msg.bytes = chunk.files.size() * cfg_.cacheInfoEntryBytes;
        chunk.senderLoad = static_cast<std::uint32_t>(outstanding_);
        msg.body =
            node_.simulation().makePayload<CacheInfoBody>(std::move(chunk));
        sendOrQueue(peer, std::move(msg));
    }
}

// ---------------------------------------------------------------------
// Cache helpers
// ---------------------------------------------------------------------

void
Server::cacheInsert(sim::FileId f)
{
    if (cache_->contains(f)) {
        cache_->touch(f);
        return;
    }
    bool ok = cache_->insert(f, [this](sim::FileId victim) {
        ++stats_.cacheEvictions;
        directory_.remove(victim, node_.id());
        broadcastCacheUpdate(victim, false);
    });
    if (ok) {
        ++stats_.cacheInserts;
        directory_.add(f, node_.id());
        broadcastCacheUpdate(f, true);
    }
}

void
Server::prewarmFile(sim::FileId f, sim::NodeId owner)
{
    if (!alive_)
        return;
    if (owner == node_.id())
        cache_->insert(f, [](sim::FileId) {});
    directory_.add(f, owner);
}

void
Server::reserveFiles(std::size_t files)
{
    directory_.reserve(files);
    if (cache_)
        cache_->reserve(files);
}

template <typename Nodes, typename Keep>
sim::NodeId
Server::leastLoaded(const Nodes &nodes, Keep keep) const
{
    sim::NodeId best = sim::invalidNode;
    std::uint32_t best_load = 0;
    for (sim::NodeId n : nodes) {
        if (!keep(n))
            continue;
        std::uint32_t l = loadOf(n);
        if (best == sim::invalidNode || l < best_load ||
            (l == best_load && n < best)) {
            best = n;
            best_load = l;
        }
    }
    return best;
}

std::uint32_t
Server::loadOf(sim::NodeId n) const
{
    if (n == node_.id())
        return static_cast<std::uint32_t>(outstanding_);
    auto it = loads_.find(n);
    return it == loads_.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------
// Housekeeping
// ---------------------------------------------------------------------

void
Server::sweepTick()
{
    scheduleEpoch(sim::sec(2), [this] { sweepTick(); });
    sim::Tick now = node_.simulation().now();
    for (auto it = pendingFwd_.begin(); it != pendingFwd_.end();) {
        if (now - it->second.sentAt > sim::sec(10)) {
            it = pendingFwd_.erase(it);
            finishRequest(); // the client has long since timed out
        } else {
            ++it;
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot support
// ---------------------------------------------------------------------

Server::Saved
Server::save() const
{
    return {ServerState(*this), disk_->save(), cache_ != nullptr,
            cache_ ? cache_->files() : std::vector<sim::FileId>{}};
}

void
Server::restore(const Saved &s)
{
    ServerState::operator=(s);
    disk_->restore(s.disk);
    if (!s.hasCache) {
        cache_.reset();
        return;
    }
    // Refill the cache in place when there is one: it carries the
    // same pin-hook closures a fresh start() installs. Its contents
    // come back without firing the hooks — the pin accounting is
    // rewound wholesale by the node's PinManager / VIA endpoint state.
    if (!cache_)
        makeFreshCache();
    cache_->restoreFiles(s.cacheFiles);
}

} // namespace performa::press
