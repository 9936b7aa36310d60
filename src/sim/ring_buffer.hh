/**
 * @file
 * RingBuffer: a contiguous power-of-two ring used for the simulator's
 * FIFO work/message queues (protocol send/receive queues, the CPU run
 * queue). std::deque allocates and frees node blocks as a steady
 * push/pop stream walks through them; the ring reuses one buffer
 * forever, so warmed-up queues are allocation-free. Capacity doubles
 * if a push ever outruns the reserved size — a safety valve, since
 * the users size it from their flow-control bounds up front.
 *
 * Rings copy as values, element by element, so a component holding
 * one snapshots it with the rest of its state: a copy reserves the
 * source's capacity (a snapshot keeps the warmed headroom), and
 * copy-assignment refills the target in place, keeping its capacity
 * (a fork allocates nothing).
 */

#ifndef PERFORMA_SIM_RING_BUFFER_HH
#define PERFORMA_SIM_RING_BUFFER_HH

#include <cstddef>
#include <new>
#include <utility>

namespace performa::sim {

/** FIFO ring over raw storage; indexable like a deque. */
template <typename T> class RingBuffer
{
  public:
    RingBuffer() = default;

    explicit RingBuffer(std::size_t capacity) { reserve(capacity); }

    RingBuffer(RingBuffer &&o) noexcept
        : buf_(o.buf_), cap_(o.cap_), head_(o.head_), size_(o.size_)
    {
        o.buf_ = nullptr;
        o.cap_ = o.head_ = o.size_ = 0;
    }

    RingBuffer &
    operator=(RingBuffer &&o) noexcept
    {
        if (this != &o) {
            destroyAll();
            buf_ = o.buf_;
            cap_ = o.cap_;
            head_ = o.head_;
            size_ = o.size_;
            o.buf_ = nullptr;
            o.cap_ = o.head_ = o.size_ = 0;
        }
        return *this;
    }

    /** Copy @p o front to back into a ring of @p o's capacity. */
    RingBuffer(const RingBuffer &o)
    {
        reserve(o.cap_);
        for (std::size_t i = 0; i < o.size_; ++i)
            emplace_back(o[i]);
    }

    /** Refill in place with copies of @p o's elements; the ring keeps
     *  its capacity and grows only if @p o holds more. */
    RingBuffer &
    operator=(const RingBuffer &o)
    {
        if (this != &o) {
            clear();
            reserve(o.size_);
            for (std::size_t i = 0; i < o.size_; ++i)
                emplace_back(o[i]);
        }
        return *this;
    }

    ~RingBuffer() { destroyAll(); }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }

    /** Grow the buffer so at least @p n elements fit (never shrinks). */
    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            relocate(roundUp(n));
    }

    T &operator[](std::size_t i) { return buf_[(head_ + i) & (cap_ - 1)]; }

    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & (cap_ - 1)];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }

    void push_back(T v) { emplace_back(std::move(v)); }

    /** Construct an element at the back from @p args. */
    template <typename... Args>
    void
    emplace_back(Args &&...args)
    {
        if (size_ == cap_)
            relocate(cap_ ? cap_ * 2 : minCapacity);
        ::new (static_cast<void *>(buf_ + ((head_ + size_) & (cap_ - 1))))
            T{std::forward<Args>(args)...};
        ++size_;
    }

    void
    pop_front()
    {
        front().~T();
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    void
    clear()
    {
        while (size_ > 0)
            pop_front();
        head_ = 0;
    }

  private:
    static constexpr std::size_t minCapacity = 8;

    static std::size_t
    roundUp(std::size_t n)
    {
        std::size_t c = minCapacity;
        while (c < n)
            c <<= 1;
        return c;
    }

    /** Move everything into a fresh buffer of @p new_cap slots. */
    void
    relocate(std::size_t new_cap)
    {
        T *fresh = static_cast<T *>(::operator new(
            new_cap * sizeof(T), std::align_val_t{alignof(T)}));
        for (std::size_t i = 0; i < size_; ++i) {
            T &src = (*this)[i];
            ::new (static_cast<void *>(fresh + i)) T(std::move(src));
            src.~T();
        }
        if (buf_)
            ::operator delete(buf_, std::align_val_t{alignof(T)});
        buf_ = fresh;
        cap_ = new_cap;
        head_ = 0;
    }

    void
    destroyAll()
    {
        if (!buf_)
            return;
        clear();
        ::operator delete(buf_, std::align_val_t{alignof(T)});
        buf_ = nullptr;
        cap_ = 0;
    }

    T *buf_ = nullptr;
    std::size_t cap_ = 0; ///< always a power of two (or zero)
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_RING_BUFFER_HH
