/**
 * @file
 * Time markers collected during a phase-1 experiment. They mechanize
 * the instrumentation the paper's evaluators read off their server
 * logs, the Mendosus log and throughput graphs: when the fault went
 * in, when the service detected it (first exclusion or fail-fast),
 * when the component recovered, and when nodes rejoined. The cluster
 * owns the one log; each server and the fault injector append to it
 * where the events happen.
 */

#ifndef PERFORMA_PRESS_MARKERS_HH
#define PERFORMA_PRESS_MARKERS_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace performa::press {

/** What a marker records. */
enum class MarkerKind
{
    Inject,        ///< fault applied
    Recover,       ///< faulty component repaired / restored
    Exclude,       ///< a server excluded a node from its member set
    MemberUp,      ///< a server added a node to its member set
    FailFast,      ///< a server terminated on a fatal comm error
    GiveUp,        ///< a restarted server gave up rejoining
    Started,       ///< a server process (re)started
};

const char *markerName(MarkerKind k);

struct Marker
{
    sim::Tick t = 0;
    MarkerKind kind = MarkerKind::Inject;
    sim::NodeId node = sim::invalidNode;  ///< observing node
    sim::NodeId other = sim::invalidNode; ///< subject node, if any
    std::string detail;
};

/** Append-only marker log with simple queries. */
class MarkerLog
{
  public:
    /** Snapshot state: the markers so far. */
    using Saved = std::vector<Marker>;

    Saved save() const { return markers_; }
    void restore(const Saved &s) { markers_ = s; }

    void
    add(sim::Tick t, MarkerKind kind,
        sim::NodeId node = sim::invalidNode,
        sim::NodeId other = sim::invalidNode, std::string detail = {})
    {
        markers_.push_back(Marker{t, kind, node, other,
                                  std::move(detail)});
    }

    const std::vector<Marker> &all() const { return markers_; }

    /** First marker of @p kind at or after @p from. */
    std::optional<Marker>
    firstAfter(MarkerKind kind, sim::Tick from) const
    {
        for (const auto &m : markers_) {
            if (m.kind == kind && m.t >= from)
                return m;
        }
        return std::nullopt;
    }

    /** Last marker of @p kind, if any. */
    std::optional<Marker>
    last(MarkerKind kind) const
    {
        for (auto it = markers_.rbegin(); it != markers_.rend(); ++it) {
            if (it->kind == kind)
                return *it;
        }
        return std::nullopt;
    }

    /** Count of markers of @p kind in [from, to). */
    std::size_t
    count(MarkerKind kind, sim::Tick from = 0,
          sim::Tick to = sim::maxTick) const
    {
        std::size_t n = 0;
        for (const auto &m : markers_) {
            if (m.kind == kind && m.t >= from && m.t < to)
                ++n;
        }
        return n;
    }

  private:
    std::vector<Marker> markers_;
};

} // namespace performa::press

#endif // PERFORMA_PRESS_MARKERS_HH
