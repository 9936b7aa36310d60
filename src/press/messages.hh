/**
 * @file
 * PRESS protocol message bodies: intra-cluster messages (request
 * forwarding, file-data transfer, caching-information dissemination,
 * membership), datagram kinds (heartbeats, rejoin protocol), and the
 * client-server request/response payloads.
 *
 * Load information is piggy-backed onto every intra-cluster message
 * via the common @c senderLoad field, as in the paper.
 */

#ifndef PERFORMA_PRESS_MESSAGES_HH
#define PERFORMA_PRESS_MESSAGES_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace performa::press {

/** Intra-cluster message types (AppMessage::type). */
enum MsgType : std::uint32_t
{
    MsgFwdRequest = 1, ///< forward a client request to a service node
    MsgFileData,       ///< file content back to the initial node
    MsgCacheUpdate,    ///< one cache insert/evict broadcast
    MsgCacheInfo,      ///< bulk caching info (rejoin), chunked
    MsgMemberDown,     ///< heartbeat detector announces a failure
};

/** Datagram kinds (heartbeats + TCP rejoin protocol). */
enum DgramKind : std::uint32_t
{
    DgHeartbeat = 100,
    DgJoinReq,  ///< rejoining node broadcasts its address
    DgJoinResp, ///< lowest-ID member replies with the configuration
};

/** Client-server frame kinds on the client network. */
enum ClientFrameKind : std::uint32_t
{
    ClientRequest = 1,
    ClientResponse,
};

/** Common header: every intra-cluster message carries the sender's
 *  current load (number of open connections). */
struct MsgBase
{
    std::uint32_t senderLoad = 0;
};

struct FwdRequestBody : MsgBase
{
    sim::RequestId req = 0;
    sim::FileId file = 0;
    sim::NodeId initial = sim::invalidNode;
    std::uint32_t clientPort = 0;
};

struct FileDataBody : MsgBase
{
    sim::RequestId req = 0;
    sim::FileId file = 0;
    std::uint32_t clientPort = 0;
};

struct CacheUpdateBody : MsgBase
{
    sim::NodeId node = sim::invalidNode;
    sim::FileId file = 0;
    bool added = true;
};

struct CacheInfoBody : MsgBase
{
    sim::NodeId node = sim::invalidNode;
    std::vector<sim::FileId> files;
};

struct MemberDownBody : MsgBase
{
    sim::NodeId failed = sim::invalidNode;
};

/** DgJoinResp payload. */
struct JoinRespBody
{
    std::vector<sim::NodeId> members;
};

/**
 * Client network payloads. sentAt is measurement-only: the server
 * echoes it (like a request-id header) so the client can time the
 * whole request; nothing in the serving path reads it for decisions.
 */
struct ClientRequestBody
{
    sim::RequestId req = 0;
    sim::FileId file = 0;
    std::uint32_t replyPort = 0;
    sim::Tick sentAt = 0; ///< stamped by the client
};

struct ClientResponseBody
{
    sim::RequestId req = 0;
    sim::Tick sentAt = 0; ///< echoed from the request
};

} // namespace performa::press

#endif // PERFORMA_PRESS_MESSAGES_HH
