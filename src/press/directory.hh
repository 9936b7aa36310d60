/**
 * @file
 * Each node's view of what every node caches ("locality information
 * takes the form of the names of the files that are currently
 * cached"), maintained from cache-update broadcasts and cache-info
 * transfers, and purged wholesale when a node is excluded from the
 * cluster.
 */

#ifndef PERFORMA_PRESS_DIRECTORY_HH
#define PERFORMA_PRESS_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace performa::press {

/**
 * fileId -> nodes table. File ids are dense, so every file owns a row
 * of @c width node slots (the static cluster size: a file can be
 * cached by each node at most once) holding its nodes in insertion
 * order, plus a count. A per-node entry counter answers entriesOf().
 * The rows double on the first sight of a larger file id; clear()
 * keeps them, so a process restart does not allocate, and copying a
 * Directory for a snapshot is a few vector copies.
 */
class Directory
{
  public:
    /** An empty directory that can only be assigned to. */
    Directory() = default;

    /** @param width Most nodes one file can be listed under. */
    explicit Directory(std::size_t width) : width_(width) {}

    /** Record that @p node caches @p f. */
    void
    add(sim::FileId f, sim::NodeId node)
    {
        if (f >= counts_.size())
            growFor(f);
        sim::NodeId *row = slots_.data() + std::size_t(f) * width_;
        std::uint32_t &n = counts_[f];
        if (std::find(row, row + n, node) != row + n)
            return;
        if (n == width_)
            PANIC("directory: file ", f, " listed under more than ",
                  width_, " nodes");
        row[n++] = node;
        if (node >= entries_.size())
            entries_.resize(std::size_t(node) + 1, 0);
        ++entries_[node];
    }

    /** Record that @p node no longer caches @p f. */
    void
    remove(sim::FileId f, sim::NodeId node)
    {
        if (f < counts_.size() && erase(f, node))
            --entries_[node];
    }

    /** Drop all knowledge about @p node (node excluded). Scans every
     *  file; it runs only on reconfiguration. */
    void
    purgeNode(sim::NodeId node)
    {
        if (entriesOf(node) == 0)
            return;
        for (std::size_t f = 0; f < counts_.size(); ++f)
            erase(static_cast<sim::FileId>(f), node);
        entries_[node] = 0;
    }

    /** Nodes believed to cache @p f (possibly empty), in the order
     *  they were added. The view is valid until the next add, remove,
     *  purgeNode or clear. */
    std::span<const sim::NodeId>
    nodesFor(sim::FileId f) const
    {
        if (f >= counts_.size())
            return {};
        return {slots_.data() + std::size_t(f) * width_, counts_[f]};
    }

    /** Number of (file, node) entries for @p node. */
    std::size_t
    entriesOf(sim::NodeId node) const
    {
        return node < entries_.size() ? entries_[node] : 0;
    }

    /** Forget everything, keeping the table's capacity. */
    void
    clear()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        std::fill(entries_.begin(), entries_.end(), 0);
    }

  private:
    /** Size the table to cover file id @p f. */
    void
    growFor(sim::FileId f)
    {
        std::size_t n = std::max<std::size_t>(counts_.size() * 2, 64);
        while (n <= f)
            n *= 2;
        counts_.resize(n, 0);
        slots_.resize(n * width_);
    }

    /** Take @p node out of @p f's row, keeping the order of the rest.
     *  @return whether it was listed. */
    bool
    erase(sim::FileId f, sim::NodeId node)
    {
        sim::NodeId *row = slots_.data() + std::size_t(f) * width_;
        std::uint32_t &n = counts_[f];
        sim::NodeId *end = row + n;
        sim::NodeId *at = std::find(row, end, node);
        if (at == end)
            return false;
        std::copy(at + 1, end, at);
        --n;
        return true;
    }

    std::size_t width_ = 0;
    std::vector<sim::NodeId> slots_;     ///< width_ slots per file id
    std::vector<std::uint32_t> counts_;  ///< listed nodes, by file id
    std::vector<std::uint32_t> entries_; ///< listed files, by node id
};

} // namespace performa::press

#endif // PERFORMA_PRESS_DIRECTORY_HH
