/**
 * @file
 * Minimal aligned allocator for workload and image buffers.
 *
 * Recorded traces renumber cache lines but keep each address's
 * intra-line offset (Recorder::remap), so the low bits of a host
 * buffer address flow into the trace. glibc malloc only guarantees
 * 16-byte alignment: an unrelated earlier allocation can shift a
 * buffer between the 16-byte slots of a 32-byte modeled line and move
 * recorded line-split patterns — and downstream cycle counts — with
 * it. Allocating every recorded buffer at (at least) the modeled line
 * size pins the intra-line offset of element i to (i * sizeof(T)) %
 * line, a pure function of the workload, independent of heap layout.
 */

#ifndef MEMO_CORE_ALIGNED_HH
#define MEMO_CORE_ALIGNED_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "annotations.hh"

namespace memo
{

/** Modeled cache-line size; Recorder::remap granularity matches. */
inline constexpr std::size_t kRecordedLineBytes = 32;

/** An inclusive range [first, last] of host line numbers. */
struct LineRange
{
    uint64_t first;
    uint64_t last;
};

class FreedLines;

/**
 * The registry of live recorders, told of every freed recorded buffer.
 *
 * Recorder::remap assigns trace line IDs to host lines first-touch.
 * Keyed by the host line alone, the mapping outlives buffers: when
 * malloc hands a later buffer the region of a freed one, the new
 * buffer inherits the old buffer's line IDs — but only if the
 * allocator happened to reuse that region, so heap layout leaks into
 * line sharing. AlignedAllocator reports every deallocation here,
 * before the memory goes back to malloc, and the registry queues the
 * freed lines on every live recorder's FreedLines inbox. The recorder
 * forgets those lines before its next access, so a re-used region gets
 * fresh IDs exactly as an untouched one would, and trace line IDs are
 * a pure function of the workload's allocation/access sequence.
 *
 * The push is what keeps recording parallel: a recorder checks only
 * its own inbox's flag per access and takes no shared lock. A free on
 * one thread reaches a recorder on another in time, because the free
 * happens-before malloc hands the region out again, and that
 * happens-before any access to it.
 */
class LiveRecorders
{
  public:
    static LiveRecorders &
    instance()
    {
        // Intentionally leaked: deallocate() runs from destructors of
        // static-storage buffers (e.g. the bundled images) during
        // program teardown, after a function-local static object
        // would already be gone.
        static LiveRecorders *r = // NOLINT(memo-CONC-003)
            new LiveRecorders;
        return *r;
    }

    /** A recorded buffer [p, p + bytes) was freed; tell every recorder. */
    void onFree(const void *p, std::size_t bytes);

  private:
    friend class FreedLines;

    LiveRecorders() = default;

    void enroll(FreedLines *inbox);
    void withdraw(FreedLines *inbox);

    Mutex mu;
    std::vector<FreedLines *> live MEMO_GUARDED_BY(mu);
};

/**
 * One recorder's inbox of freed host lines. Enrolled with
 * LiveRecorders for its whole lifetime; pending() is the recorder's
 * one per-access check, a single acquire load.
 */
class FreedLines
{
  public:
    FreedLines() { LiveRecorders::instance().enroll(this); }
    ~FreedLines() { LiveRecorders::instance().withdraw(this); }

    FreedLines(const FreedLines &) = delete;
    FreedLines &operator=(const FreedLines &) = delete;

    /** True when lines were freed since the last take(). */
    bool
    pending() const
    {
        return pending_.load(std::memory_order_acquire);
    }

    /** Hand over the queued ranges, oldest first; clears pending(). */
    std::vector<LineRange>
    take()
    {
        std::vector<LineRange> out;
        MutexLock lock(mu);
        out.swap(queued);
        pending_.store(false, std::memory_order_relaxed);
        return out;
    }

  private:
    friend class LiveRecorders;

    void
    post(LineRange range)
    {
        MutexLock lock(mu);
        queued.push_back(range);
        pending_.store(true, std::memory_order_release);
    }

    Mutex mu;
    std::vector<LineRange> queued MEMO_GUARDED_BY(mu);
    /// Set with the queue, under mu; read without it by pending().
    std::atomic<bool> pending_{false};
};

inline void
LiveRecorders::onFree(const void *p, std::size_t bytes)
{
    uint64_t base = reinterpret_cast<uintptr_t>(p);
    LineRange range{base / kRecordedLineBytes,
                    (base + bytes - 1) / kRecordedLineBytes};
    MutexLock lock(mu);
    for (FreedLines *inbox : live)
        inbox->post(range);
}

inline void
LiveRecorders::enroll(FreedLines *inbox)
{
    MutexLock lock(mu);
    live.push_back(inbox);
}

inline void
LiveRecorders::withdraw(FreedLines *inbox)
{
    MutexLock lock(mu);
    std::erase(live, inbox);
}

/** std::allocator drop-in returning Align-aligned blocks. */
template <typename T, std::size_t Align = kRecordedLineBytes>
struct AlignedAllocator
{
    static_assert((Align & (Align - 1)) == 0, "power of two");
    static_assert(Align >= alignof(T), "under-aligned for T");

    using value_type = T;

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{Align}));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        LiveRecorders::instance().onFree(p, n * sizeof(T));
        ::operator delete(p, std::align_val_t{Align});
    }
};

template <typename T, typename U, std::size_t A>
bool
operator==(const AlignedAllocator<T, A> &, const AlignedAllocator<U, A> &)
{
    return true;
}

template <typename T, typename U, std::size_t A>
bool
operator!=(const AlignedAllocator<T, A> &, const AlignedAllocator<U, A> &)
{
    return false;
}

/** Vector whose data() is aligned to the modeled cache-line size. */
template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

} // namespace memo

#endif // MEMO_CORE_ALIGNED_HH
