/**
 * @file
 * Compact structure-of-arrays storage for dynamic instruction traces.
 *
 * The AoS layout (vector<Instruction>, 40 bytes per record after
 * padding) stores four 64-bit payload words for every instruction,
 * but most of a trace is IntAlu/Branch (no payload at all) and
 * Load/Store (address only). The store keeps per-instruction columns
 * for the fields every record has — class, synthetic PC, and a payload
 * index — and appends addresses to one side column and operand/result
 * words to the side columns of the record's own class, so each
 * record's payload index is its rank within its class (or among the
 * address records). Every stored byte is one of these:
 *
 *   IntAlu/Branch   9 bytes/record   (vs 40)
 *   Load/Store     17 bytes/record   (vs 40)
 *   mul/div/...    33 bytes/record   (vs 40)
 *
 * The per-class operand columns are the only copy of the operands:
 * batched replay streams them as they are (classColumns()), and
 * iteration materializes lightweight Instruction values through a
 * forward iterator, so CpuModel code is written exactly as before.
 *
 * push() keeps only the fields meaningful for the instruction's
 * class: operand/result words of non-computational classes and
 * addresses of non-memory classes are dropped (the Recorder never
 * sets them).
 */

#ifndef MEMO_TRACE_TRACE_STORE_HH
#define MEMO_TRACE_TRACE_STORE_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "core/access_key.hh"
#include "core/annotations.hh"
#include "trace/instruction.hh"

namespace memo
{

/**
 * A lazily built key stream (core/access_key.hh) that belongs to one
 * store's current contents: built at most once, by the first reader,
 * while concurrent readers wait for it. A copy or a moved-to store
 * starts without one, so no stream outlives the columns it keys.
 */
class AccessKeySlot
{
  public:
    AccessKeySlot() = default;
    AccessKeySlot(const AccessKeySlot &) {}
    AccessKeySlot &
    operator=(const AccessKeySlot &)
    {
        drop();
        return *this;
    }

    /** The stream, built by @p build() on the first call. */
    template <typename Build>
    const AccessKeys &
    get(Build &&build) const MEMO_EXCLUDES(mu_)
    {
        if (const AccessKeys *k = ready_.load(std::memory_order_acquire))
            return *k;
        MutexLock lock(mu_);
        if (!keys_) {
            keys_ = std::make_unique<const AccessKeys>(build());
            ready_.store(keys_.get(), std::memory_order_release);
        }
        return *keys_;
    }

    /** True once get() has built the stream. */
    bool
    built() const
    {
        return ready_.load(std::memory_order_acquire) != nullptr;
    }

    /**
     * Drop the stream. Only the store's mutators call this, and a
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
        keys_.reset();
    }

  private:
    mutable Mutex mu_;
    mutable std::unique_ptr<const AccessKeys> keys_ MEMO_GUARDED_BY(mu_);
    /** keys_.get() once built: the lock-free fast path of get(). */
    mutable std::atomic<const AccessKeys *> ready_{nullptr};
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
     * takes them: the per-record, operand-class and address columns in
     * trace order, and the operand words already in their classes'
     * columns (the decoder scatters each chunk by opCls as it goes).
     */
    struct Columns
    {
        std::vector<uint8_t> cls;
        std::vector<uint32_t> pc;
        std::vector<uint8_t> opCls;
        std::array<ClassColumns, numInstClasses> ops;
        std::vector<uint64_t> addr;
    };

    /**
     * Build a store that takes over @p cols, rebuilding the payload
     * index in one pass over the class column. The checks: every
     * class column holds as many a, b and result words as opCls names
     * records of that class; every class value is an InstClass; opCls
     * agrees with the class of every operand-carrying record; and the
     * operand and address columns hold exactly the records the class
     * column implies, neither running out early nor leaving elements
     * over. Throws SpillError (trace/chunk_codec.hh): its one caller
     * decodes spilled traces.
     */
    static TraceStore adopt(Columns &&cols);

    /** True for classes carrying operand/result payload words. */
    static constexpr bool
    hasOperands(InstClass cls)
    {
        switch (cls) {
          case InstClass::IntMul:
          case InstClass::FpAdd:
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
        dropAccessKeys();
        cls_.push_back(static_cast<uint8_t>(inst.cls));
        pc_.push_back(inst.pc);
        if (hasOperands(inst.cls)) {
            ClassColumns &c = ops_[static_cast<unsigned>(inst.cls)];
            payload_.push_back(static_cast<uint32_t>(c.a.size()));
            c.a.push_back(inst.a);
            c.b.push_back(inst.b);
            c.r.push_back(inst.result);
        } else if (hasAddress(inst.cls)) {
            payload_.push_back(static_cast<uint32_t>(addr_.size()));
            addr_.push_back(inst.addr);
        } else {
            payload_.push_back(0);
        }
    }

    /** Materialize record @p i. */
    Instruction
    get(size_t i) const
    {
        Instruction inst;
        inst.cls = static_cast<InstClass>(cls_[i]);
        inst.pc = pc_[i];
        if (hasOperands(inst.cls)) {
            const ClassColumns &c = ops_[cls_[i]];
            uint32_t p = payload_[i];
            inst.a = c.a[p];
            inst.b = c.b[p];
            inst.result = c.r[p];
        } else if (hasAddress(inst.cls)) {
            inst.addr = addr_[payload_[i]];
        }
        return inst;
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
     * replayMemo() streams into the class's table. Empty for classes
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
     * Raw per-record and address columns, for column-wise export (the
     * spill encoder in trace/chunk_codec.hh, which gathers the
     * operand columns back into trace order through get()). The
     * derived payload index is deliberately not exposed: it is
     * reconstructed exactly from the class sequence on import.
     */
    const uint8_t *clsData() const { return cls_.data(); }
    const uint32_t *pcData() const { return pc_.data(); }
    size_t addrCount() const { return addr_.size(); }
    const uint64_t *addrData() const { return addr_.data(); }

    void
    clear()
    {
        dropAccessKeys();
        cls_.clear();
        pc_.clear();
        payload_.clear();
        for (ClassColumns &c : ops_) {
            c.a.clear();
            c.b.clear();
            c.r.clear();
        }
        addr_.clear();
    }

    /**
     * Reserve the per-record columns for @p n records. The side
     * columns grow with the records of their class.
     */
    void
    reserve(size_t n)
    {
        cls_.reserve(n);
        pc_.reserve(n);
        payload_.reserve(n);
    }

    /** Bytes held by the record data (excluding slack capacity). */
    size_t
    memoryBytes() const
    {
        return cls_.size() * (sizeof(uint8_t) + sizeof(uint32_t) * 2) +
               opCount() * sizeof(uint64_t) * 3 +
               addr_.size() * sizeof(uint64_t);
    }

    /** Per-class record counts, computed from the class column. */
    std::vector<uint64_t> classCounts() const;

    /** Forward iterator materializing Instruction values. */
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

        Instruction operator*() const { return store->get(idx); }

        const_iterator &
        operator++()
        {
            idx++;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator tmp = *this;
            idx++;
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
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

  private:
    void
    dropAccessKeys()
    {
        for (AccessKeySlot &k : keys_)
            k.drop();
    }

    // Per-record columns.
    std::vector<uint8_t> cls_;
    std::vector<uint32_t> pc_;
    std::vector<uint32_t> payload_; //!< rank in ops_[cls] or in addr_

    // Side columns, indexed by payload_.
    std::array<ClassColumns, numInstClasses> ops_;
    std::vector<uint64_t> addr_;

    /** Key streams of the IntMul, FpMul and FpDiv columns. */
    std::array<AccessKeySlot, 3> keys_;
};

} // namespace memo

#endif // MEMO_TRACE_TRACE_STORE_HH
