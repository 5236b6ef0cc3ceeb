/**
 * @file
 * Compact structure-of-arrays storage for dynamic instruction traces.
 *
 * The AoS layout (vector<Instruction>, 40 bytes per record after
 * padding) stores four 64-bit payload words for every instruction,
 * but the pipeline reads far less: the cycle model charges IntAlu,
 * Branch and FpAdd records by count, Load/Store by address, and only
 * the memoizable classes (those with a MEMO-TABLE, as in the paper,
 * where Shade stops on mult/div alone) by their operand values. The
 * store keeps one per-record column, the class byte, and appends
 * addresses to one side column and operand/result words to the side
 * columns of the record's own class. Every stored byte is one of
 * these:
 *
 *   IntAlu/Branch/FpAdd   1 byte/record    (vs 40)
 *   Load/Store            9 bytes/record   (vs 40)
 *   mul/div/sqrt/...     25 bytes/record   (vs 40)
 *
 * No per-record index into the side columns is kept: a record's
 * position in its side column is the number of earlier records of its
 * class (or of address records), which iteration counts as it walks.
 * The per-class operand columns are the only copy of the operands:
 * replay streams them as they are (classColumns()), and iteration
 * materializes lightweight Instruction values through a forward
 * iterator for the code that wants whole records.
 *
 * push() keeps only the fields meaningful for the instruction's
 * class: operand/result words of classes without operands and
 * addresses of non-memory classes are dropped.
 *
 * Besides the records, a store caches two things derived from them,
 * each built on first use and dropped with the contents they were
 * derived from: the key stream of each keyed class (accessKeys(), 8
 * bytes per access of the class) and one memory pass (memoryPass(),
 * about 1.3 KB). Neither is spilled or counted in memoryBytes(), so a
 * trace cache's budget sees only the records.
 */

#ifndef MEMO_TRACE_TRACE_STORE_HH
#define MEMO_TRACE_TRACE_STORE_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "core/access_key.hh"
#include "core/annotations.hh"
#include "trace/instruction.hh"

namespace memo
{

/**
 * A lazily built value derived from one store's current contents (a
 * key stream, the memory pass): built at most once, by the first
 * reader, while concurrent readers wait for it. A copy or a moved-to
 * store starts without one, so no value outlives the columns it was
 * derived from.
 */
template <typename T>
class LazySlot
{
  public:
    LazySlot() = default;
    LazySlot(const LazySlot &) {}
    LazySlot &
    operator=(const LazySlot &)
    {
        drop();
        return *this;
    }

    /** The value, built by @p build() on the first call. */
    template <typename Build>
    const T &
    get(Build &&build) const MEMO_EXCLUDES(mu_)
    {
        if (const T *v = ready_.load(std::memory_order_acquire))
            return *v;
        MutexLock lock(mu_);
        if (!value_) {
            value_ = std::make_unique<const T>(build());
            ready_.store(value_.get(), std::memory_order_release);
        }
        return *value_;
    }

    /** True once get() has built the value. */
    bool
    built() const
    {
        return ready_.load(std::memory_order_acquire) != nullptr;
    }

    /**
     * Drop the value. Only the store's mutators call this, and a
     * store being mutated has no concurrent readers, so the common
     * case (nothing built) is one relaxed load.
     */
    void
    drop() MEMO_EXCLUDES(mu_)
    {
        if (!ready_.load(std::memory_order_relaxed))
            return;
        MutexLock lock(mu_);
        ready_.store(nullptr, std::memory_order_relaxed);
        value_.reset();
    }

  private:
    mutable Mutex mu_;
    mutable std::unique_ptr<const T> value_ MEMO_GUARDED_BY(mu_);
    /** value_.get() once built: the lock-free fast path of get(). */
    mutable std::atomic<const T *> ready_{nullptr};
};

/**
 * The fields of a memory hierarchy that decide what it makes of a
 * trace's loads and stores, as integers: L1 size, line size, ways and
 * hit latency, the same four of L2, then the memory latency.
 */
using MemoryGeometry = std::array<uint64_t, 9>;

/**
 * What one memory hierarchy made of one trace, in plain integers: the
 * per-class record counts, and per address class (Load, Store) the
 * cycles and the number of records at each latency, with the L1 and
 * L2 hit counters. CpuModel::run (sim/cpu.hh) walks it once per store
 * and geometry (TraceStore::memoryPass) and charges everything else
 * per run. About 1.3 KB.
 */
struct MemoryPass
{
    /** Latencies up to this are counted in an array, longer ones listed. */
    static constexpr unsigned kCountedLatency = 64;

    /** The latencies of one address class. */
    struct Latencies
    {
        uint64_t cycles = 0; //!< sum of the latencies
        std::array<uint64_t, kCountedLatency + 1> counted{};
        /** (latency, records) past kCountedLatency, first seen first. */
        std::vector<std::pair<uint64_t, uint64_t>> over;
    };

    MemoryGeometry geometry{}; //!< set by TraceStore::memoryPass
    std::array<uint64_t, numInstClasses> count{};
    Latencies load, store;
    uint64_t l1Accesses = 0, l1Hits = 0;
    uint64_t l2Accesses = 0, l2Hits = 0;
};

/** Column-oriented trace storage; records are append-only. */
class TraceStore
{
  public:
    /** The operand columns of one class: a/b/result words, trace order. */
    struct ClassColumns
    {
        std::vector<uint64_t> a, b, r;
    };

    /**
     * A store's columns as the spill codec decodes them and adopt()
     * takes them: the class, operand-class and address columns in
     * trace order, and the operand words already in their classes'
     * columns (the decoder scatters each chunk by opCls as it goes).
     */
    struct Columns
    {
        std::vector<uint8_t> cls;
        std::vector<uint8_t> opCls;
        std::array<ClassColumns, numInstClasses> ops;
        std::vector<uint64_t> addr;
    };

    /**
     * Build a store that takes over @p cols, checking them in one pass
     * over the class column. The checks: every opCls value is a class
     * with operands; every class column holds as many a, b and result
     * words as opCls names records of that class; every class value is
     * an InstClass; opCls agrees with the class of every
     * operand-carrying record; and the operand and address columns
     * hold exactly the records the class column implies, neither
     * running out early nor leaving elements over. Throws SpillError
     * (trace/chunk_codec.hh): its one caller decodes spilled traces.
     */
    static TraceStore adopt(Columns &&cols);

    /**
     * True for classes carrying operand/result payload words: the
     * memoizable ones (memoOperation()). FpAdd records carry none; the
     * cycle model charges them by count.
     */
    static constexpr bool
    hasOperands(InstClass cls)
    {
        switch (cls) {
          case InstClass::IntMul:
          case InstClass::FpMul:
          case InstClass::FpDiv:
          case InstClass::FpSqrt:
          case InstClass::FpLog:
          case InstClass::FpSin:
          case InstClass::FpCos:
          case InstClass::FpExp:
            return true;
          default:
            return false;
        }
    }

    /** True for classes carrying an effective address. */
    static constexpr bool
    hasAddress(InstClass cls)
    {
        return cls == InstClass::Load || cls == InstClass::Store;
    }

    void
    push(const Instruction &inst)
    {
        dropDerived();
        cls_.push_back(static_cast<uint8_t>(inst.cls));
        if (hasOperands(inst.cls)) {
            ClassColumns &c = ops_[static_cast<unsigned>(inst.cls)];
            c.a.push_back(inst.a);
            c.b.push_back(inst.b);
            c.r.push_back(inst.result);
        } else if (hasAddress(inst.cls)) {
            addr_.push_back(inst.addr);
        }
    }

    size_t size() const { return cls_.size(); }
    bool empty() const { return cls_.empty(); }

    /** Number of operand-carrying records, over all classes. */
    size_t
    opCount() const
    {
        size_t n = 0;
        for (const ClassColumns &c : ops_)
            n += c.a.size();
        return n;
    }

    /**
     * The a/b/result words of every record of class @p cls, contiguous
     * and in trace order: the store's own operand columns, which
     * replayTables() (sim/cpu.hh) streams into the class's table. Empty for classes
     * without operands. The reference stays valid, and the columns
     * unchanged, until the store is next mutated; a recorded trace is
     * frozen, so any number of threads may read it at once.
     */
    const ClassColumns &
    classColumns(InstClass cls) const
    {
        return ops_[static_cast<unsigned>(cls)];
    }

    /**
     * The key stream of class @p cls (IntMul, FpMul or FpDiv) over
     * classColumns(cls), from MemoTable::keyAccesses: built on the
     * first call, at most once per store contents even when threads
     * race to it, and then shared by every replay of this store. It
     * is dropped by push(), clear() and adopt(), and a copy of the
     * store starts without it. It is never spilled and not counted in
     * memoryBytes() (8 bytes per access of the class), so a trace
     * cache's budget does not see it.
     * @throws std::invalid_argument for any other class
     */
    const AccessKeys &accessKeys(InstClass cls) const;

    /** True once accessKeys(@p cls) has built its stream. */
    bool hasAccessKeys(InstClass cls) const;

    /** Key passes run by accessKeys() in this process, for tests. */
    static uint64_t accessKeyBuilds();

    /**
     * The memory pass of this store under @p geometry: built by
     * @p walk() on the first call, at most once per store contents
     * even when threads race to it, and then shared by every caller
     * that asks under the same geometry. The first call's geometry
     * keeps the slot: a caller under any other geometry gets nullptr
     * and walks for itself, and the slot is left alone. Like the key
     * streams, the pass is dropped by push(), clear() and adopt(), a
     * copy of the store starts without it, it is never spilled, and
     * it is not counted in memoryBytes() (about 1.3 KB per store).
     */
    template <typename Walk>
    const MemoryPass *
    memoryPass(const MemoryGeometry &geometry, Walk &&walk) const
    {
        const MemoryPass &p = pass_.get([&] {
            MemoryPass built = walk();
            built.geometry = geometry;
            return built;
        });
        return p.geometry == geometry ? &p : nullptr;
    }

    /** True once memoryPass() has built a pass. */
    bool hasMemoryPass() const { return pass_.built(); }

    /**
     * Raw class and address columns, for column-wise export (the
     * spill encoder in trace/chunk_codec.hh, which gathers the
     * operand columns back into trace order by walking the class
     * column).
     */
    const uint8_t *clsData() const { return cls_.data(); }
    size_t addrCount() const { return addr_.size(); }
    const uint64_t *addrData() const { return addr_.data(); }

    void
    clear()
    {
        dropDerived();
        cls_.clear();
        for (ClassColumns &c : ops_) {
            c.a.clear();
            c.b.clear();
            c.r.clear();
        }
        addr_.clear();
    }

    /**
     * Reserve the class column for @p n records. The side columns
     * grow with the records of their class.
     */
    void reserve(size_t n) { cls_.reserve(n); }

    /**
     * Bytes held by the record data (excluding slack capacity, the key
     * streams and the memory pass).
     */
    size_t
    memoryBytes() const
    {
        return cls_.size() * sizeof(uint8_t) +
               opCount() * sizeof(uint64_t) * 3 +
               addr_.size() * sizeof(uint64_t);
    }

    /** Per-class record counts, computed from the class column. */
    std::vector<uint64_t> classCounts() const;

    /**
     * Forward iterator materializing Instruction values. It keeps one
     * cursor per operand class and one into the address column, each
     * advanced past the record it leaves, so the walk reads every
     * column front to back.
     */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Instruction;
        using difference_type = ptrdiff_t;
        using pointer = const Instruction *;
        using reference = Instruction;

        const_iterator() = default;
        const_iterator(const TraceStore *s, size_t i)
            : store(s), idx(i)
        {
        }

        Instruction
        operator*() const
        {
            Instruction inst;
            const uint8_t c = store->cls_[idx];
            inst.cls = static_cast<InstClass>(c);
            if (hasOperands(inst.cls)) {
                const ClassColumns &col = store->ops_[c];
                const size_t k = op[c];
                inst.a = col.a[k];
                inst.b = col.b[k];
                inst.result = col.r[k];
            } else if (hasAddress(inst.cls)) {
                inst.addr = store->addr_[addr];
            }
            return inst;
        }

        const_iterator &
        operator++()
        {
            const uint8_t c = store->cls_[idx++];
            const auto cls = static_cast<InstClass>(c);
            if (hasOperands(cls))
                op[c]++;
            else if (hasAddress(cls))
                addr++;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator tmp = *this;
            ++*this;
            return tmp;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return idx == o.idx;
        }

        bool
        operator!=(const const_iterator &o) const
        {
            return idx != o.idx;
        }

      private:
        const TraceStore *store = nullptr;
        size_t idx = 0;
        /** Next word of each class's operand columns. */
        std::array<size_t, numInstClasses> op{};
        size_t addr = 0; //!< next element of the address column
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

  private:
    /** Drop everything derived from the columns. */
    void
    dropDerived()
    {
        for (LazySlot<AccessKeys> &k : keys_)
            k.drop();
        pass_.drop();
    }

    /** The one per-record column. */
    std::vector<uint8_t> cls_;

    // Side columns: the records of each operand class, and the
    // addresses of Load/Store, in trace order.
    std::array<ClassColumns, numInstClasses> ops_;
    std::vector<uint64_t> addr_;

    /** Key streams of the IntMul, FpMul and FpDiv columns. */
    std::array<LazySlot<AccessKeys>, 3> keys_;
    /** The memory pass under the first geometry asked for. */
    LazySlot<MemoryPass> pass_;
};

} // namespace memo

#endif // MEMO_TRACE_TRACE_STORE_HH
