/**
 * @file
 * PRESS versions (Table 1 of the paper) and their configuration:
 * which substrate each version uses, its messaging mode, and the
 * calibrated CPU cost parameters that land the five versions near the
 * paper's measured throughputs.
 */

#ifndef PERFORMA_PRESS_CONFIG_HH
#define PERFORMA_PRESS_CONFIG_HH

#include <cstdint>
#include <string>

#include "proto/tcp.hh"
#include "proto/via.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::press {

/** The five server versions studied in the paper (Table 1). */
enum class Version
{
    TcpPress,   ///< TCP; connection breaks trigger reconfiguration
    TcpPressHb, ///< TCP; heartbeat losses trigger reconfiguration
    ViaPress0,  ///< VIA; regular messages, interrupt-driven reception
    ViaPress3,  ///< VIA; remote memory writes + polling
    ViaPress5,  ///< VIA; remote writes + zero-copy (dynamic pinning)
};

/** All five versions, in Table 1 order. */
inline constexpr Version allVersions[] = {
    Version::TcpPress, Version::TcpPressHb, Version::ViaPress0,
    Version::ViaPress3, Version::ViaPress5,
};

/** Human-readable version name as used in the paper. */
const char *versionName(Version v);

/** @return true for the VIA-based versions. */
bool isVia(Version v);

/** @return true if this version runs the heartbeat protocol. */
bool usesHeartbeats(Version v);

/** @return true if this version pins cached file pages dynamically. */
bool usesDynamicPinning(Version v);

/**
 * Near-peak throughput reported in Table 1 (requests/sec on 4 nodes),
 * used by the benches to print paper-vs-measured rows and by the
 * workload driver to pick a saturating offered load.
 */
double paperThroughput(Version v);

/** Base (substrate-independent) CPU costs of request handling. */
struct PressCosts
{
    sim::Tick acceptParse = sim::usec(150);   ///< accept + parse + dispatch
    sim::Tick clientConn = sim::usec(130);    ///< per-request client TCP
    sim::Tick cacheRead = sim::usec(10);      ///< cache lookup + read
    sim::Tick clientSendFixed = sim::usec(60);///< kernel send to client
    double clientSendPerKb = 12.0;
    sim::Tick diskReadCpu = sim::usec(30);    ///< CPU part of a disk read
    sim::Tick broadcastHandle = sim::usec(5); ///< apply a cache update
    sim::Tick creditHandle = sim::usec(2);    ///< VIA flow-control msg
};

/** Everything needed to instantiate one PRESS deployment. */
struct PressConfig
{
    Version version = Version::TcpPress;
    std::uint32_t numNodes = 4;

    std::uint64_t cacheBytes = 128ull << 20; ///< per-node file cache
    std::uint64_t fileBytes = 8192;          ///< uniform file size

    /**
     * Optional per-file size override (heavy-tailed file sets from
     * the loadgen profiles). Serving costs — disk reads, transfer
     * bytes, send CPU — use sizeOf(); cache capacity stays accounted
     * in mean-size (fileBytes) units, so the default uniform set is
     * bit-identical to the historical behaviour.
     */
    sim::SmallFn<std::uint64_t(sim::FileId)> fileSizeFn;

    std::uint64_t
    sizeOf(sim::FileId f) const
    {
        return fileSizeFn ? fileSizeFn(f) : fileBytes;
    }

    PressCosts costs;

    // Heartbeat protocol (TCP-PRESS-HB): 3 missed beats = 15 s.
    sim::Tick hbPeriod = sim::sec(5);
    int hbMissThreshold = 3;

    // Rejoin protocol.
    sim::Tick joinRetryInterval = sim::sec(2);
    int joinAttempts = 7; ///< ~15 s of attempts, then give up

    /**
     * EXTENSION (paper Section 6.2: "one needs to implement a
     * rigorous membership algorithm that can repair the group
     * membership correctly when loss of heartbeats leads to the
     * incorrect splintering of the cluster"). When enabled, servers
     * periodically probe configured nodes missing from their member
     * set and re-merge when reachable, healing splinters without an
     * operator. Off by default: the paper's PRESS reconfigures only
     * at start-up and on failure detection.
     */
    bool robustMembership = false;
    sim::Tick membershipProbeInterval = sim::sec(10);

    /**
     * EXTENSION (paper Section 7: "if there are enough resources
     * these should be pre-allocated during channel set-up"). For
     * VIA-PRESS-5, register (pin) the whole cache region once at
     * start-up instead of pinning per cached file, trading memory
     * headroom for immunity to pin-exhaustion faults.
     */
    bool staticPinning = false;

    // Client-facing admission control.
    std::size_t acceptCap = 128;

    // Disks (two 10k rpm SCSI disks per node).
    std::uint32_t disksPerNode = 2;
    sim::Tick diskSeek = sim::msec(7);
    double diskBytesPerUsec = 40.0;

    // Intra-cluster message sizes.
    std::uint64_t fwdReqBytes = 300;
    std::uint64_t fileRespOverheadBytes = 200;
    std::uint64_t cacheUpdateBytes = 64;
    std::uint64_t cacheInfoChunkBytes = 32 * 1024;
    std::uint64_t cacheInfoEntryBytes = 16;
};

/** Substrate configuration for the TCP versions. */
proto::TcpConfig tcpConfigFor(Version v);

/** Substrate configuration for the VIA versions. */
proto::ViaConfig viaConfigFor(Version v);

} // namespace performa::press

#endif // PERFORMA_PRESS_CONFIG_HH
