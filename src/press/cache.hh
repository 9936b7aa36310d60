/**
 * @file
 * The per-node LRU file cache. For VIA-PRESS-5 every cached file's
 * pages must be registered (pinned) with the VIA provider; the pin
 * hooks connect the cache to the node's pinnable-page budget so that
 * the pin-exhaustion fault shrinks the cache, exactly as described in
 * Section 5.4 of the paper.
 */

#ifndef PERFORMA_PRESS_CACHE_HH
#define PERFORMA_PRESS_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace performa::press {

/**
 * LRU cache of uniformly sized files.
 *
 * File ids are dense in [0, numFiles), so the LRU list is intrusive:
 * prev/next links and an in-cache flag live in arrays indexed by file
 * id. A lookup, touch, insert or eviction is a few array accesses —
 * no hashing and no per-entry allocation. Cluster::prewarm() sizes
 * the arrays once for the whole working set, and a restarted
 * process's cache starts at its predecessor's size; past that, the
 * arrays double on the first sight of a larger id.
 */
class FileCache
{
  public:
    /** Try to pin @p bytes; false when the budget is exhausted. */
    using PinHook = sim::SmallFn<bool(std::uint64_t)>;
    /** Unpin @p bytes. */
    using UnpinHook = sim::SmallFn<void(std::uint64_t)>;

    FileCache(std::uint64_t capacity_bytes, std::uint64_t file_bytes)
        : capacityFiles_(file_bytes ? capacity_bytes / file_bytes : 0),
          fileBytes_(file_bytes)
    {}

    /** Enable dynamic pinning (VIA-PRESS-5). */
    void
    setPinHooks(PinHook pin, UnpinHook unpin)
    {
        pin_ = std::move(pin);
        unpin_ = std::move(unpin);
    }

    /** Size the link arrays to cover file ids below @p files. */
    void
    reserve(std::size_t files)
    {
        if (files <= inCache_.size())
            return;
        prev_.resize(files, none);
        next_.resize(files, none);
        inCache_.resize(files, 0);
    }

    /** File ids the link arrays cover. */
    std::size_t tableSize() const { return inCache_.size(); }

    bool
    contains(sim::FileId f) const
    {
        return f < inCache_.size() && inCache_[f];
    }

    /** LRU bump on a cache hit. */
    void
    touch(sim::FileId f)
    {
        if (!contains(f) || f == head_)
            return;
        unlink(f);
        linkFront(f);
    }

    /**
     * Insert @p f, evicting LRU files as needed (each eviction calls
     * @p on_evict(victim) inline, so the server can broadcast it).
     *
     * @return false when the file could not be cached at all: with
     * dynamic pinning enabled this happens when the pin budget is
     * exhausted even after evicting everything.
     */
    template <typename OnEvict>
    bool
    insert(sim::FileId f, OnEvict &&on_evict)
    {
        if (capacityFiles_ == 0)
            return false;
        if (contains(f)) {
            touch(f);
            return true;
        }
        while (size_ >= capacityFiles_)
            evictLru(on_evict);
        if (pin_) {
            // Zero-copy requires the file's pages pinned; shed LRU
            // files until the pin succeeds ("it drops files from its
            // cache to free up memory").
            while (!pin_(fileBytes_)) {
                if (size_ == 0)
                    return false;
                evictLru(on_evict);
            }
        }
        growFor(f);
        linkFront(f);
        return true;
    }

    /** Evict the least recently used file (no-op when empty), then
     *  call @p on_evict(victim). */
    template <typename OnEvict>
    void
    evictLru(OnEvict &&on_evict)
    {
        if (size_ == 0)
            return;
        sim::FileId victim = tail_;
        unlink(victim);
        if (unpin_)
            unpin_(fileBytes_);
        on_evict(victim);
    }

    /** Drop everything (process restart). */
    void
    clear()
    {
        if (unpin_) {
            for (std::size_t i = 0; i < size_; ++i)
                unpin_(fileBytes_);
        }
        dropAll();
    }

    std::size_t size() const { return size_; }
    std::size_t capacityFiles() const { return capacityFiles_; }
    std::uint64_t fileBytes() const { return fileBytes_; }

    /** The cached files in MRU-to-LRU order. */
    std::vector<sim::FileId>
    files() const
    {
        std::vector<sim::FileId> out;
        out.reserve(size_);
        for (sim::FileId f = head_; f != none; f = next_[f])
            out.push_back(f);
        return out;
    }

    /**
     * Snapshot support: rebuild the contents from a saved MRU-to-LRU
     * file list WITHOUT firing pin or evict hooks — the pin accounting
     * a restore implies is rewound wholesale by the node's PinManager
     * state, so re-running the hooks would double-count it.
     */
    void
    restoreFiles(const std::vector<sim::FileId> &mru_to_lru)
    {
        dropAll();
        for (auto it = mru_to_lru.rbegin(); it != mru_to_lru.rend(); ++it) {
            growFor(*it);
            linkFront(*it);
        }
    }

  private:
    static constexpr sim::FileId none = ~sim::FileId(0);

    /** Size the link arrays to cover file id @p f. */
    void
    growFor(sim::FileId f)
    {
        if (f < inCache_.size())
            return;
        std::size_t n = std::max<std::size_t>(inCache_.size() * 2, 64);
        while (n <= f)
            n *= 2;
        reserve(n);
    }

    /** Make @p f (not cached, within the arrays) the MRU file. */
    void
    linkFront(sim::FileId f)
    {
        prev_[f] = none;
        next_[f] = head_;
        if (head_ != none)
            prev_[head_] = f;
        else
            tail_ = f;
        head_ = f;
        inCache_[f] = 1;
        ++size_;
    }

    /** Take the cached file @p f out of the list. */
    void
    unlink(sim::FileId f)
    {
        sim::FileId p = prev_[f];
        sim::FileId n = next_[f];
        (p != none ? next_[p] : head_) = n;
        (n != none ? prev_[n] : tail_) = p;
        inCache_[f] = 0;
        --size_;
    }

    /** Empty the list without firing hooks; the arrays keep their size. */
    void
    dropAll()
    {
        for (sim::FileId f = head_; f != none; f = next_[f])
            inCache_[f] = 0;
        head_ = tail_ = none;
        size_ = 0;
    }

    std::size_t capacityFiles_;
    std::uint64_t fileBytes_;
    std::vector<sim::FileId> prev_;     ///< towards MRU, by file id
    std::vector<sim::FileId> next_;     ///< towards LRU, by file id
    std::vector<std::uint8_t> inCache_; ///< 1 while cached, by file id
    sim::FileId head_ = none;           ///< MRU file
    sim::FileId tail_ = none;           ///< LRU file
    std::size_t size_ = 0;
    PinHook pin_;
    UnpinHook unpin_;
};

} // namespace performa::press

#endif // PERFORMA_PRESS_CACHE_HH
