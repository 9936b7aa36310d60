/**
 * @file
 * SmallFn<Sig>: the one callable holder inside a simulated world, with
 * small-buffer optimization. The event engine stores its handlers in
 * SmallFn<void()>; network port handlers, comm-stack callbacks, the
 * page cache's pin hooks and the file-size function use it with their
 * own signatures. The common callable in this tree — a lambda
 * capturing `this` plus an id or two — fits in the inline buffer and
 * never touches the allocator; only oversized or over-aligned
 * captures fall back to the heap.
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

template <typename Sig>
class SmallFn;

/**
 * A type-erased callable of signature R(Args...). operator() calls it
 * any number of times, also through a const reference, as the standard
 * library's function wrapper does; on SmallFn<void()>, consume() calls it once and destroys it,
 * which is how the event engine runs a handler. Empty after being
 * moved from. Copying a holder copies its captures, which is how a
 * snapshot duplicates a warmed event queue's handlers, the work
 * queued behind them and the frames in flight. Captures need not be
 * copyable to be held, only to be copied: every callable in this tree
 * captures `this`, ids and refcounted handles, so copying one with a
 * non-copyable capture is a bug and PANICs. The event engine itself
 * never copies a handler (emplace() takes holders as rvalues only).
 */
template <typename R, typename... Args>
class SmallFn<R(Args...)>
{
  public:
    /**
     * Inline storage size. 56 bytes covers every callable in the tree
     * today and keeps sizeof(SmallFn) at one cache line. The largest
     * is exactly 56 bytes: the disk-read completion in
     * press/server.cc, `[this, e, req, svc]`, which carries a whole
     * ClientRequestBody.
     */
    static constexpr std::size_t inlineBytes = 56;

    SmallFn() = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, SmallFn> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
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
            static_assert(std::is_invocable_r_v<R, D &, Args...>,
                          "callable does not match the SmallFn signature");
            if constexpr (fitsInline<D>) {
                ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            } else {
                D *p = new D(std::forward<F>(f));
                std::memcpy(buf_, &p, sizeof p);
            }
            ops_ = &opsFor<D>;
        }
    }

    /** @return true if a callable is held. */
    explicit operator bool() const { return ops_ != nullptr; }

    /** Call the held callable (must be non-empty); it stays held. */
    R
    operator()(Args... args) const
    {
        return ops_->call(buf_, std::forward<Args>(args)...);
    }

    /**
     * Call the held void() callable once and destroy it, in one
     * indirect call (must be non-empty). The holder reads as empty
     * from the start of the call, so nothing the callable does can
     * reset or replace it while it runs.
     */
    void
    consume()
        requires std::is_same_v<R(Args...), void()>
    {
        const Ops *ops = ops_;
        ops_ = nullptr;
        ops->consume(buf_);
    }

  private:
    struct Ops
    {
        R (*call)(void *, Args &&...);
        /** Call, then destroy (used on SmallFn<void()> only). */
        void (*consume)(void *);
        /** Move the callable from src into raw dst, destroying src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        /** Copy src into raw dst; null when the callable is not
         *  copy-constructible (such a holder cannot be copied). */
        void (*copy)(void *dst, void *src);
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

    /** The operations on a D held inline or, when it does not fit,
     *  through a pointer stored in the buffer. */
    template <typename D>
    struct Impl
    {
        static D &
        get(void *b)
        {
            if constexpr (fitsInline<D>) {
                return *static_cast<D *>(b);
            } else {
                D *p;
                std::memcpy(&p, b, sizeof p);
                return *p;
            }
        }

        static void
        drop(D &f) noexcept
        {
            if constexpr (fitsInline<D>)
                f.~D();
            else
                delete &f;
        }

        static R
        call(void *b, Args &&...args)
        {
            return static_cast<R>(get(b)(std::forward<Args>(args)...));
        }

        static void
        consume(void *b)
        {
            if constexpr (std::is_invocable_v<D &>) {
                D &f = get(b);
                f();
                drop(f);
            }
        }

        static void
        relocate(void *dst, void *src) noexcept
        {
            if constexpr (fitsInline<D>) {
                D &s = get(src);
                ::new (dst) D(std::move(s));
                s.~D();
            } else {
                std::memcpy(dst, src, sizeof(D *));
            }
        }

        static void destroy(void *b) noexcept { drop(get(b)); }

        static void
        copy(void *dst, void *src)
        {
            if constexpr (!std::is_copy_constructible_v<D>) {
                // never called: opsFor<D> holds no copy op
            } else if constexpr (fitsInline<D>) {
                ::new (dst) D(get(src));
            } else {
                D *fresh = new D(get(src));
                std::memcpy(dst, &fresh, sizeof fresh);
            }
        }
    };

    template <typename D>
    static constexpr Ops opsFor = {
        &Impl<D>::call, &Impl<D>::consume, &Impl<D>::relocate,
        &Impl<D>::destroy,
        std::is_copy_constructible_v<D> ? &Impl<D>::copy : nullptr};

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

    /** Mutable: a call through a const holder may change the
     *  callable's own state, as with the standard wrapper. */
    alignas(std::max_align_t) mutable std::byte buf_[inlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_SMALL_FN_HH
