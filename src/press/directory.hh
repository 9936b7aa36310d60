/**
 * @file
 * Each node's view of what every node caches ("locality information
 * takes the form of the names of the files that are currently
 * cached"), maintained from cache-update broadcasts and cache-info
 * transfers, and purged wholesale when a node is excluded from the
 * cluster. One node bitmask per file: a 4-node copy costs one byte
 * per file id.
 */

#ifndef PERFORMA_PRESS_DIRECTORY_HH
#define PERFORMA_PRESS_DIRECTORY_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace performa::press {

/**
 * fileId -> nodes table. File ids are dense, so every file owns a row
 * of ceil(width / 8) bytes: bit n of the row is set while node n
 * caches the file (nodes are numbered below @c width, the static
 * cluster size). A per-node entry counter answers entriesOf().
 * Cluster::prewarm() sizes the rows once, for the whole working set;
 * past that, the rows double on the first sight of a larger file id.
 * clear() keeps them, so a process restart does not allocate, and
 * copying a Directory for a snapshot is two vector copies.
 */
class Directory
{
  public:
    /** The nodes of one row, in ascending node id order. */
    class Nodes
    {
      public:
        class iterator
        {
          public:
            using iterator_concept = std::forward_iterator_tag;
            using iterator_category = std::input_iterator_tag;
            using value_type = sim::NodeId;
            using difference_type = std::ptrdiff_t;
            using reference = sim::NodeId;

            iterator() = default;

            sim::NodeId
            operator*() const
            {
                return base_ +
                       static_cast<sim::NodeId>(std::countr_zero(bits_));
            }

            iterator &
            operator++()
            {
                bits_ &= bits_ - 1;
                settle();
                return *this;
            }

            iterator
            operator++(int)
            {
                iterator old = *this;
                ++*this;
                return old;
            }

            bool
            operator==(const iterator &o) const
            {
                return at_ == o.at_ && bits_ == o.bits_;
            }

          private:
            friend class Nodes;

            iterator(const std::uint8_t *at, const std::uint8_t *end)
                : at_(at), end_(end)
            {
                if (at_ != end_) {
                    bits_ = *at_;
                    settle();
                }
            }

            /** Move to the next byte with a set bit, or to the end. */
            void
            settle()
            {
                while (bits_ == 0 && ++at_ != end_) {
                    base_ += 8;
                    bits_ = *at_;
                }
            }

            const std::uint8_t *at_ = nullptr;
            const std::uint8_t *end_ = nullptr;
            unsigned bits_ = 0;     ///< the current byte's unvisited bits
            sim::NodeId base_ = 0;  ///< node id of the current byte's bit 0
        };

        Nodes() = default;
        Nodes(const std::uint8_t *row, std::size_t bytes)
            : row_(row), bytes_(bytes)
        {}

        iterator begin() const { return {row_, row_ + bytes_}; }
        iterator end() const { return {row_ + bytes_, row_ + bytes_}; }

        bool
        empty() const
        {
            return std::all_of(row_, row_ + bytes_,
                               [](std::uint8_t b) { return b == 0; });
        }

        std::size_t
        size() const
        {
            std::size_t n = 0;
            for (std::size_t i = 0; i < bytes_; ++i)
                n += static_cast<std::size_t>(std::popcount(row_[i]));
            return n;
        }

      private:
        const std::uint8_t *row_ = nullptr;
        std::size_t bytes_ = 0;
    };

    /** An empty directory that can only be assigned to. */
    Directory() = default;

    /** @param width Nodes of the cluster; node ids run below it. */
    explicit Directory(std::size_t width)
        : width_(width), rowBytes_((width + 7) / 8), entries_(width, 0)
    {}

    /** Size the rows to cover file ids below @p files at once. */
    void
    reserve(std::size_t files)
    {
        if (files * rowBytes_ > rows_.size())
            rows_.resize(files * rowBytes_, 0);
    }

    /** Record that @p node caches @p f. */
    void
    add(sim::FileId f, sim::NodeId node)
    {
        if (node >= width_)
            PANIC("directory: node ", node, " outside a ", width_,
                  "-node cluster");
        if (std::size_t(f) * rowBytes_ >= rows_.size())
            growFor(f);
        std::uint8_t &byte = rows_[std::size_t(f) * rowBytes_ + node / 8];
        const std::uint8_t bit = std::uint8_t(1u << (node % 8));
        if (byte & bit)
            return;
        byte |= bit;
        ++entries_[node];
    }

    /** Record that @p node no longer caches @p f. */
    void
    remove(sim::FileId f, sim::NodeId node)
    {
        if (node < width_ && std::size_t(f) * rowBytes_ < rows_.size() &&
            erase(std::size_t(f) * rowBytes_ + node / 8, node))
            --entries_[node];
    }

    /** Drop all knowledge about @p node (node excluded). Scans every
     *  file; it runs only on reconfiguration. */
    void
    purgeNode(sim::NodeId node)
    {
        if (entriesOf(node) == 0)
            return;
        for (std::size_t at = node / 8; at < rows_.size(); at += rowBytes_)
            erase(at, node);
        entries_[node] = 0;
    }

    /** Nodes believed to cache @p f (possibly empty), ascending. The
     *  view is valid until the next add, remove, purgeNode or clear. */
    Nodes
    nodesFor(sim::FileId f) const
    {
        if (std::size_t(f) * rowBytes_ >= rows_.size())
            return {};
        return {rows_.data() + std::size_t(f) * rowBytes_, rowBytes_};
    }

    /** Number of (file, node) entries for @p node. */
    std::size_t
    entriesOf(sim::NodeId node) const
    {
        return node < width_ ? entries_[node] : 0;
    }

    /** Forget everything, keeping the table's capacity. */
    void
    clear()
    {
        std::fill(rows_.begin(), rows_.end(), 0);
        std::fill(entries_.begin(), entries_.end(), 0);
    }

  private:
    /** Size the table to cover file id @p f. */
    void
    growFor(sim::FileId f)
    {
        std::size_t n =
            std::max<std::size_t>(rows_.size() / rowBytes_ * 2, 64);
        while (n <= f)
            n *= 2;
        rows_.resize(n * rowBytes_, 0);
    }

    /** Clear @p node's bit in the row byte at @p at.
     *  @return whether it was set. */
    bool
    erase(std::size_t at, sim::NodeId node)
    {
        const std::uint8_t bit = std::uint8_t(1u << (node % 8));
        if (!(rows_[at] & bit))
            return false;
        rows_[at] &= std::uint8_t(~bit);
        return true;
    }

    std::size_t width_ = 0;
    std::size_t rowBytes_ = 0;           ///< ceil(width_ / 8)
    std::vector<std::uint8_t> rows_;     ///< rowBytes_ per file id
    std::vector<std::uint32_t> entries_; ///< listed files, by node id
};

} // namespace performa::press

#endif // PERFORMA_PRESS_DIRECTORY_HH
