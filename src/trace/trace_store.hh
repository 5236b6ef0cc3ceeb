/**
 * @file
 * Compact structure-of-arrays storage for dynamic instruction traces.
 *
 * The AoS layout (vector<Instruction>, 40 bytes per record after
 * padding) stores four 64-bit payload words for every instruction,
 * but most of a trace is IntAlu/Branch (no payload at all) and
 * Load/Store (address only). The store keeps per-instruction columns
 * for the fields every record has — class, synthetic PC, and a payload
 * index — and appends operand/result words or addresses to side
 * columns only for the classes that use them:
 *
 *   IntAlu/Branch   9 bytes/record   (vs 40)
 *   Load/Store     17 bytes/record   (vs 40)
 *   mul/div/...    33 bytes/record   (vs 40)
 *
 * which streams ~2-3x less memory per instruction through the replay
 * loops (CpuModel::run, replayMemo, OpMix counting). Iteration
 * materializes lightweight Instruction values through a forward
 * iterator, so replay code is written exactly as before.
 *
 * push() keeps only the fields meaningful for the instruction's
 * class: operand/result words of non-computational classes and
 * addresses of non-memory classes are dropped (the Recorder never
 * sets them).
 */

#ifndef MEMO_TRACE_TRACE_STORE_HH
#define MEMO_TRACE_TRACE_STORE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "core/annotations.hh"

#include "trace/instruction.hh"

namespace memo
{

/** Column-oriented trace storage; records are append-only. */
class TraceStore
{
  public:
    TraceStore() = default;
    TraceStore(TraceStore &&) = default;
    TraceStore &operator=(TraceStore &&) = default;
    // Copies share no partition cache; the copy rebuilds lazily.
    TraceStore(const TraceStore &o)
        : cls_(o.cls_), pc_(o.pc_), payload_(o.payload_),
          opCls_(o.opCls_), opA_(o.opA_), opB_(o.opB_),
          opRes_(o.opRes_), addr_(o.addr_)
    {
    }
    TraceStore &
    operator=(const TraceStore &o)
    {
        cls_ = o.cls_;
        pc_ = o.pc_;
        payload_ = o.payload_;
        opCls_ = o.opCls_;
        opA_ = o.opA_;
        opB_ = o.opB_;
        opRes_ = o.opRes_;
        addr_ = o.addr_;
        {
            MutexLock lock(partMu);
            part_.reset();
        }
        return *this;
    }

    /** Dense single-class partition of the operand columns. */
    struct ClassColumns
    {
        std::vector<uint64_t> a, b, r;
    };

    /** The stored columns of a store, as adopt() takes them. */
    struct Columns
    {
        std::vector<uint8_t> cls;
        std::vector<uint32_t> pc;
        std::vector<uint8_t> opCls;
        std::vector<uint64_t> opA, opB, opRes, addr;
    };

    /**
     * Build a store that takes over @p cols, rebuilding the payload
     * index in one pass over the class column. The pass checks that
     * every class value is an InstClass, that opCls agrees with the
     * class of every operand-carrying record, and that the operand and
     * address columns hold exactly the records the class column
     * implies, neither running out early nor leaving elements over.
     * Throws SpillError (trace/chunk_codec.hh): its one caller decodes
     * spilled traces.
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
        cls_.push_back(static_cast<uint8_t>(inst.cls));
        pc_.push_back(inst.pc);
        if (hasOperands(inst.cls)) {
            payload_.push_back(static_cast<uint32_t>(opA_.size()));
            opCls_.push_back(static_cast<uint8_t>(inst.cls));
            opA_.push_back(inst.a);
            opB_.push_back(inst.b);
            opRes_.push_back(inst.result);
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
            uint32_t p = payload_[i];
            inst.a = opA_[p];
            inst.b = opB_[p];
            inst.result = opRes_[p];
        } else if (hasAddress(inst.cls)) {
            inst.addr = addr_[payload_[i]];
        }
        return inst;
    }

    size_t size() const { return cls_.size(); }
    bool empty() const { return cls_.empty(); }

    /**
     * Batched-replay view of the operand side columns: the
     * operand-carrying records only, in trace order, as contiguous
     * arrays. opClasses()[i] is the class of the access whose operand
     * words are opA()[i]/opB()[i]/opResults()[i]; records without
     * operands (IntAlu, Load, ...) do not appear. replayMemo() streams
     * these four columns directly instead of materializing an
     * Instruction per record.
     */
    size_t opCount() const { return opA_.size(); }
    const uint8_t *opClasses() const { return opCls_.data(); }
    const uint64_t *opA() const { return opA_.data(); }
    const uint64_t *opB() const { return opB_.data(); }
    const uint64_t *opResults() const { return opRes_.data(); }

    /**
     * Raw per-record and address columns, for column-wise export (the
     * spill encoder in trace/chunk_codec.hh). The derived payload
     * index is deliberately not exposed: it is reconstructed exactly
     * from the class sequence on import.
     */
    const uint8_t *clsData() const { return cls_.data(); }
    const uint32_t *pcData() const { return pc_.data(); }
    size_t addrCount() const { return addr_.size(); }
    const uint64_t *addrData() const { return addr_.data(); }

    /**
     * Dense per-class view of the operand columns: the a/b/result
     * words of every record of class @p cls, contiguous and in trace
     * order. Built for all classes on first use and cached (a trace
     * is recorded once and replayed many times); the cache rebuilds
     * itself if the store grew since, and is not shared by copies.
     * Thread-safe: the build runs outside any lock, so workers
     * building the partitions of different stores (say, traces just
     * readmitted from the spill tier) proceed in parallel; racing
     * first calls on one store each build, and the first to finish
     * installs. The returned reference stays valid while the store
     * exists unmutated: a frozen store's partition is never replaced.
     * Cache memory is a derived copy of the operand columns and is
     * not counted by memoryBytes().
     */
    const ClassColumns &classColumns(InstClass cls) const;

    void
    clear()
    {
        cls_.clear();
        pc_.clear();
        payload_.clear();
        opCls_.clear();
        opA_.clear();
        opB_.clear();
        opRes_.clear();
        addr_.clear();
        {
            MutexLock lock(partMu);
            part_.reset();
        }
    }

    /**
     * Reserve for @p n records. The side columns are sized by the
     * given fractions of n (defaults match a typical kernel mix of
     * roughly one-third computational and one-third memory records).
     */
    void
    reserve(size_t n, double op_fraction = 0.4,
            double mem_fraction = 0.4)
    {
        cls_.reserve(n);
        pc_.reserve(n);
        payload_.reserve(n);
        size_t ops = static_cast<size_t>(n * op_fraction);
        opCls_.reserve(ops);
        opA_.reserve(ops);
        opB_.reserve(ops);
        opRes_.reserve(ops);
        addr_.reserve(static_cast<size_t>(n * mem_fraction));
    }

    /** Bytes held by the record data (excluding slack capacity). */
    size_t
    memoryBytes() const
    {
        return cls_.size() * (sizeof(uint8_t) + sizeof(uint32_t) * 2) +
               opA_.size() * (sizeof(uint64_t) * 3 + sizeof(uint8_t)) +
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
    // Per-record columns. Record/clear run strictly before any
    // concurrent replay (a trace is frozen once recorded), so the
    // columns themselves carry no lock.
    std::vector<uint8_t> cls_ MEMO_UNGUARDED;
    std::vector<uint32_t> pc_ MEMO_UNGUARDED;
    std::vector<uint32_t> payload_
        MEMO_UNGUARDED; //!< index into opA_/opB_/opRes_ or addr_

    // Side columns, indexed by payload_. opCls_ repeats the class of
    // each operand-carrying record so batched replay can walk the
    // operand columns alone (see opClasses()).
    std::vector<uint8_t> opCls_ MEMO_UNGUARDED;
    std::vector<uint64_t> opA_ MEMO_UNGUARDED;
    std::vector<uint64_t> opB_ MEMO_UNGUARDED;
    std::vector<uint64_t> opRes_ MEMO_UNGUARDED;
    std::vector<uint64_t> addr_ MEMO_UNGUARDED;

    /** Lazily built per-class partition (see classColumns()). */
    struct Partition
    {
        size_t builtFor = SIZE_MAX; //!< opA_.size() when built
        std::array<ClassColumns, numInstClasses> cols;
    };
    /** Partition of the current operand columns; reads no lock. */
    std::unique_ptr<Partition> buildPartition() const;
    /// One process-wide mutex guards the partition pointer of every
    /// store: held only to look it up or install a finished build,
    /// never during a build (see classColumns() in the .cc);
    /// class-scope so the guarded_by relation is visible to the
    /// capability analysis.
    inline static Mutex partMu;
    mutable std::unique_ptr<Partition> part_ MEMO_GUARDED_BY(partMu);
};

} // namespace memo

#endif // MEMO_TRACE_TRACE_STORE_HH
