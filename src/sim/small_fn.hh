/**
 * @file
 * SmallFn: a callable holder with small-buffer optimization, used by
 * the event engine for handler storage. The common event
 * handler in this tree — a lambda capturing `this` plus an id or two —
 * fits in the inline buffer and never touches the allocator; only
 * oversized or over-aligned captures fall back to the heap.
 */

#ifndef PERFORMA_SIM_SMALL_FN_HH
#define PERFORMA_SIM_SMALL_FN_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace performa::sim {

/**
 * A type-erased `void()` callable, run once: consume() invokes it and
 * destroys it. Empty after being moved from. Copying a holder copies
 * its captures, which is how a snapshot duplicates a warmed event
 * queue's handlers and the work queued behind them. Captures need not
 * be copyable to be held, only to be copied: every handler in this
 * tree captures `this`, ids and refcounted handles, so copying one
 * with a non-copyable capture is a bug and PANICs. The event engine
 * itself never copies a handler (emplace() takes holders as rvalues
 * only).
 */
class SmallFn
{
  public:
    /**
     * Inline storage size. 56 bytes covers every handler in the tree
     * today and keeps sizeof(SmallFn) at one cache line. The largest
     * is exactly 56 bytes: the disk-read completion in
     * press/server.cc, `[this, e, req, svc]`, which carries a whole
     * ClientRequestBody.
     */
    static constexpr std::size_t inlineBytes = 56;

    SmallFn() = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                          std::is_invocable_r_v<void, D &>>>
    SmallFn(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    SmallFn(SmallFn &&o) noexcept { moveFrom(o); }

    SmallFn &
    operator=(SmallFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    SmallFn(const SmallFn &o) { copyFrom(o); }

    SmallFn &
    operator=(const SmallFn &o)
    {
        if (this != &o) {
            reset();
            copyFrom(o);
        }
        return *this;
    }

    ~SmallFn() { reset(); }

    /** Destroy the held callable, leaving the holder empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /**
     * Replace the held callable with @p f, built directly in this
     * holder's storage. An rvalue SmallFn is moved in instead, so the
     * event engine takes lambdas and ready-made holders through one
     * path without an intermediate holder.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        using D = std::decay_t<F>;
        reset();
        if constexpr (std::is_same_v<D, SmallFn>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "the event engine never copies a handler: "
                          "pass an rvalue");
            moveFrom(f);
        } else {
            static_assert(std::is_invocable_r_v<void, D &>,
                          "SmallFn holds void() callables");
            if constexpr (fitsInline<D>) {
                ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
                ops_ = &inlineOps<D>;
            } else {
                D *p = new D(std::forward<F>(f));
                std::memcpy(buf_, &p, sizeof p);
                ops_ = &heapOps<D>;
            }
        }
    }

    /** @return true if a callable is held. */
    explicit operator bool() const { return ops_ != nullptr; }

    /**
     * Invoke the held callable once and destroy it, in one indirect
     * call (must be non-empty). The holder reads as empty from the
     * start of the call, so nothing the callable does can reset or
     * replace it while it runs.
     */
    void
    consume()
    {
        const Ops *ops = ops_;
        ops_ = nullptr;
        ops->consume(buf_);
    }

  private:
    struct Ops
    {
        /** Invoke, then destroy. */
        void (*consume)(void *);
        /** Move the callable from src into raw dst, destroying src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        /** Copy src into raw dst; null when the callable is not
         *  copy-constructible (such a holder cannot be copied). */
        void (*copy)(void *dst, const void *src);
    };

    /**
     * Inline storage additionally requires a nothrow move constructor
     * so relocation (slab growth, heap sifts) cannot throw.
     */
    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= inlineBytes &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    struct InlineImpl
    {
        static void
        consume(void *b)
        {
            D &f = *static_cast<D *>(b);
            f();
            f.~D();
        }

        static void
        relocate(void *dst, void *src) noexcept
        {
            D *s = static_cast<D *>(src);
            ::new (dst) D(std::move(*s));
            s->~D();
        }

        static void destroy(void *b) noexcept { static_cast<D *>(b)->~D(); }

        static void
        copy(void *dst, const void *src)
        {
            if constexpr (std::is_copy_constructible_v<D>)
                ::new (dst) D(*static_cast<const D *>(src));
        }
    };

    template <typename D>
    struct HeapImpl
    {
        static D *
        get(void *b)
        {
            D *p;
            std::memcpy(&p, b, sizeof p);
            return p;
        }

        static void
        consume(void *b)
        {
            D *p = get(b);
            (*p)();
            delete p;
        }

        static void
        relocate(void *dst, void *src) noexcept
        {
            std::memcpy(dst, src, sizeof(D *));
        }

        static void destroy(void *b) noexcept { delete get(b); }

        static void
        copy(void *dst, const void *src)
        {
            if constexpr (std::is_copy_constructible_v<D>) {
                D *p;
                std::memcpy(&p, src, sizeof p);
                D *fresh = new D(*p);
                std::memcpy(dst, &fresh, sizeof fresh);
            }
        }
    };

    /** Copy op for @p Impl, or null when D is not copy-constructible. */
    template <typename D, typename Impl>
    static constexpr auto copyOp =
        std::is_copy_constructible_v<D> ? &Impl::copy : nullptr;

    template <typename D>
    static constexpr Ops inlineOps = {&InlineImpl<D>::consume,
                                      &InlineImpl<D>::relocate,
                                      &InlineImpl<D>::destroy,
                                      copyOp<D, InlineImpl<D>>};

    template <typename D>
    static constexpr Ops heapOps = {&HeapImpl<D>::consume,
                                    &HeapImpl<D>::relocate,
                                    &HeapImpl<D>::destroy,
                                    copyOp<D, HeapImpl<D>>};

    void
    copyFrom(const SmallFn &o)
    {
        if (o.ops_) {
            if (!o.ops_->copy)
                PANIC("copying a SmallFn with non-copyable captures");
            o.ops_->copy(buf_, o.buf_);
            ops_ = o.ops_;
        }
    }

    void
    moveFrom(SmallFn &o) noexcept
    {
        if (o.ops_) {
            o.ops_->relocate(buf_, o.buf_);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) std::byte buf_[inlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_SMALL_FN_HH
