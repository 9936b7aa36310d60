/**
 * @file
 * Per-node memory managers targeted by the resource-exhaustion faults
 * of the paper (Table 2):
 *
 *  - KernelMemory models the kernel allocator that hands out skbufs
 *    for TCP; the fault injector can force allocations to fail, which
 *    stalls outbound TCP traffic and drops inbound segments.
 *  - PinManager models the pinnable-physical-page budget consumed by
 *    VIA memory registration; the injector can lower the threshold,
 *    which makes further pin requests fail (exactly how the authors
 *    patched the cLAN driver).
 *
 * Both are plain values: a node's snapshot copies them whole.
 */

#ifndef PERFORMA_OS_MEMORY_HH
#define PERFORMA_OS_MEMORY_HH

#include <cstdint>

namespace performa::osim {

/**
 * The kernel page/skbuf allocator for one node.
 */
class KernelMemory
{
  public:
    explicit KernelMemory(std::uint64_t capacity_bytes)
        : capacity_(capacity_bytes)
    {}

    /**
     * Try to allocate @p bytes of kernel memory.
     * @return false when the injected fault is active or the pool is
     * exhausted.
     */
    bool
    alloc(std::uint64_t bytes)
    {
        if (failInjected_ || used_ + bytes > capacity_)
            return false;
        used_ += bytes;
        return true;
    }

    /** Release @p bytes back to the pool. */
    void
    free(std::uint64_t bytes)
    {
        used_ = bytes > used_ ? 0 : used_ - bytes;
    }

    /** Force all further allocations to fail (fault injection). */
    void setFailInjected(bool on) { failInjected_ = on; }
    bool failInjected() const { return failInjected_; }

    std::uint64_t used() const { return used_; }
    std::uint64_t capacity() const { return capacity_; }

    /** Node reboot: empty the pool and clear injected faults. */
    void
    reset()
    {
        used_ = 0;
        failInjected_ = false;
    }

  private:
    std::uint64_t capacity_;
    std::uint64_t used_ = 0;
    bool failInjected_ = false;
};

/**
 * The pinnable-page accountant for one node. Linux 2.2-era kernels
 * limited pinned pages to a fraction of physical memory; VIA memory
 * registration pins pages, so VIA-PRESS-5's dynamic cache pinning can
 * run into this limit.
 */
class PinManager
{
  public:
    explicit PinManager(std::uint64_t limit_bytes) : limit_(limit_bytes) {}

    /**
     * Try to pin @p bytes.
     * @return false when the (possibly fault-lowered) limit would be
     * exceeded.
     */
    bool
    pin(std::uint64_t bytes)
    {
        if (pinned_ + bytes > effectiveLimit())
            return false;
        pinned_ += bytes;
        return true;
    }

    /** Unpin @p bytes. */
    void
    unpin(std::uint64_t bytes)
    {
        pinned_ = bytes > pinned_ ? 0 : pinned_ - bytes;
    }

    /**
     * Fault injection: clamp the limit to @p bytes (the modified cLAN
     * driver's adjustable threshold). Pass ~0 to restore.
     */
    void setInjectedLimit(std::uint64_t bytes) { injectedLimit_ = bytes; }

    std::uint64_t
    effectiveLimit() const
    {
        return injectedLimit_ < limit_ ? injectedLimit_ : limit_;
    }

    std::uint64_t pinned() const { return pinned_; }
    std::uint64_t limit() const { return limit_; }

    /** Node reboot. */
    void
    reset()
    {
        pinned_ = 0;
        injectedLimit_ = ~std::uint64_t(0);
    }

  private:
    std::uint64_t limit_;
    std::uint64_t pinned_ = 0;
    std::uint64_t injectedLimit_ = ~std::uint64_t(0);
};

} // namespace performa::osim

#endif // PERFORMA_OS_MEMORY_HH
