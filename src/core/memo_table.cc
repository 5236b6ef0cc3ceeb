#include "memo_table.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "arith/fp.hh"
#include "arith/hash.hh"
#include "arith/trivial.hh"

namespace memo
{

MemoTable::MemoTable(Operation operation, const MemoConfig &config)
    : op(operation), cfg(config)
{
    // A bad geometry would index past `entries` (ways > entries gives
    // zero sets), so it is rejected in every build type.
    if (std::string err = cfg.validate(); !err.empty())
        throw std::invalid_argument("MemoTable: " + err);
    unsigned index_bits = 0;
    if (!cfg.infinite) {
        index_bits = log2Exact(cfg.sets());
        entries.resize(cfg.entries);
    }
    mode_ = modeOf(op, cfg, index_bits);
}

MemoTable::Mode
MemoTable::modeOf(Operation operation, const MemoConfig &config,
                  unsigned index_bits)
{
    // The mantissa-only design covers the operations whose result
    // exponent is a simple function of the operand exponents:
    // multiply/divide (sum/difference) and square root (halving, with
    // the exponent's parity folded into the tag since sqrt(m) and
    // sqrt(2m) have different mantissas).
    bool mantissa_op = operation == Operation::FpMul ||
                       operation == Operation::FpDiv ||
                       operation == Operation::FpSqrt;
    return Mode{
        .op = operation,
        .hash = index_bits == 0                 ? IndexHash::None
                : operation == Operation::IntMul ? IndexHash::Int
                : isUnary(operation)             ? IndexHash::FpUnary
                : config.hashScheme == HashScheme::Additive
                    ? IndexHash::FpSum
                    : IndexHash::FpXor,
        .indexBits = index_bits,
        .ways = config.ways,
        .filterTrivial = config.trivialMode != TrivialMode::CacheAll,
        .bypassTrivial = config.trivialMode == TrivialMode::NonTrivialOnly,
        .extTrivial = config.extendedTrivial,
        .mantissa = config.tagMode == TagMode::MantissaOnly && mantissa_op,
        .unary = isUnary(operation),
        .lru = config.replacement == Replacement::Lru,
        .random = config.replacement == Replacement::Random,
        .parity = config.parityProtected,
        .infinite = config.infinite,
    };
}

void
MemoTable::reset()
{
    flush();
    stats_.reset();
    tick = 0;
}

void
MemoTable::flush()
{
    for (auto &e : entries)
        e.valid = false;
    infTable.clear();
    empty_ = true;
}

namespace
{

/**
 * Parity over the protected entry fields. The parity of a sum of
 * popcounts is the popcount parity of the XOR, so one call suffices.
 */
inline bool
entryParity(uint64_t tag_a, uint64_t tag_b, uint64_t value)
{
    return std::popcount(tag_a ^ tag_b ^ value) & 1;
}

/** setPhaseBoundaryFault() state; read once per boundary decision. */
std::atomic<bool> phase_boundary_fault{false};

/** setKeyedVictimFault() state; read once per replayKeyed() call. */
std::atomic<bool> keyed_victim_fault{false};

} // anonymous namespace

void
setKeyedVictimFault(bool enabled)
{
    keyed_victim_fault.store(enabled, std::memory_order_relaxed);
}

void
setPhaseBoundaryFault(bool enabled)
{
    phase_boundary_fault.store(enabled, std::memory_order_relaxed);
}

uint64_t
MemoTable::phaseNextBoundary() const
{
    // Injected bug: see the boundary one access late, shifting every
    // window's covered range — the phase differential tests prove
    // their scalar reference accumulator catches this.
    uint64_t fault =
        phase_boundary_fault.load(std::memory_order_relaxed) ? 1 : 0;
    return phase_->flushedThrough + phase_->window() + fault;
}

uint64_t
MemoTable::phaseSegment()
{
    if (accessStamp() == phaseNextBoundary())
        phaseFlush();
    // The close needs exact equality: a stamp already past the
    // boundary (only after toggling the injected fault) wraps the
    // room to "no further close", as it would one access at a time.
    return phaseNextBoundary() - accessStamp();
}

void
MemoTable::phaseFlush()
{
    uint64_t stamp = accessStamp();
    uint64_t len = stamp - phase_->flushedThrough;
    if (len == 0)
        return;
    PhaseWindow row;
    row.start = phase_->flushedThrough;
    row.length = len;
    row.stats = statsDelta(stats_, phase_->last);
    row.occupancy = validEntries();
    unsigned sets = cfg.infinite ? 0 : cfg.sets();
    if (uint32_t *occ = phase_->push(row, sets)) {
        for (unsigned s = 0; s < sets; s++) {
            const Entry *set = &entries[static_cast<size_t>(s) *
                                        cfg.ways];
            uint32_t c = 0;
            for (unsigned w = 0; w < cfg.ways; w++)
                c += set[w].valid;
            occ[s] = c;
        }
    }
    phase_->last = stats_;
    phase_->flushedThrough = stamp;
}

void
MemoTable::finalizePhases()
{
    if (phase_)
        phaseFlush();
}

bool
MemoTable::injectBitFlip(unsigned set, unsigned way, unsigned bit)
{
    // Checked in every build type, like an invalid MemoConfig: an
    // out-of-range call would write past `entries`.
    if (cfg.infinite)
        throw std::out_of_range("injectBitFlip: infinite table");
    if (set >= cfg.sets() || way >= cfg.ways || bit >= 64)
        throw std::out_of_range(
            "injectBitFlip: set " + std::to_string(set) + ", way " +
            std::to_string(way) + ", bit " + std::to_string(bit) +
            " outside " + std::to_string(cfg.sets()) + " sets x " +
            std::to_string(cfg.ways) + " ways x 64 bits");
    Entry &e = entries[static_cast<size_t>(set) * cfg.ways + way];
    if (!e.valid)
        return false;
    e.value ^= uint64_t{1} << bit;
    return true;
}

unsigned
MemoTable::validEntries() const
{
    if (cfg.infinite)
        return static_cast<unsigned>(infTable.size());
    unsigned n = 0;
    for (const auto &e : entries)
        n += e.valid;
    return n;
}

bool
MemoTable::checkTrivial(const Mode &m, uint64_t a_bits, uint64_t b_bits,
                        uint64_t &result)
{
    bool ext = m.extTrivial;
    switch (m.op) {
      case Operation::IntMul: {
        auto t = trivialIntMul(static_cast<int64_t>(a_bits),
                               static_cast<int64_t>(b_bits), ext);
        if (!t)
            return false;
        result = static_cast<uint64_t>(t->result);
        return true;
      }
      case Operation::FpMul: {
        auto t = trivialFpMul(fpFromBits(a_bits), fpFromBits(b_bits), ext);
        if (!t)
            return false;
        result = fpBits(t->result);
        return true;
      }
      case Operation::FpDiv: {
        auto t = trivialFpDiv(fpFromBits(a_bits), fpFromBits(b_bits), ext);
        if (!t)
            return false;
        result = fpBits(t->result);
        return true;
      }
      case Operation::FpSqrt: {
        auto t = trivialFpSqrt(fpFromBits(a_bits), ext);
        if (!t)
            return false;
        result = fpBits(t->result);
        return true;
      }
      default:
        return false;
    }
}

bool
MemoTable::reconstruct(uint64_t a_bits, uint64_t b_bits, uint64_t frac,
                       int delta, uint64_t &result) const
{
    double a = fpFromBits(a_bits);
    int ea = static_cast<int>(fpBiasedExponent(a));
    unsigned sign;
    int e;
    if (op == Operation::FpSqrt) {
        if (fpSign(a))
            return false; // sqrt of a negative: not representable
        sign = 0;
        int ea_u = ea - fpExponentBias;
        int parity = ea_u & 1;
        e = (ea_u - parity) / 2 + delta + fpExponentBias;
    } else {
        double b = fpFromBits(b_bits);
        sign = fpSign(a) ^ fpSign(b);
        int eb = static_cast<int>(fpBiasedExponent(b));
        e = op == Operation::FpMul
                ? ea + eb - fpExponentBias + delta
                : ea - eb + fpExponentBias + delta;
    }
    if (e < 1 || e > 2046)
        return false;
    result = fpBits(fpCompose(sign, static_cast<unsigned>(e), frac));
    return true;
}

bool
MemoTable::derivePayload(uint64_t a_bits, uint64_t b_bits,
                         uint64_t result_bits, uint64_t &frac,
                         int8_t &delta) const
{
    double r = fpFromBits(result_bits);
    if (!fpIsNormal(r))
        return false;
    double a = fpFromBits(a_bits);
    int ea = static_cast<int>(fpBiasedExponent(a));
    int er = static_cast<int>(fpBiasedExponent(r));
    int d;
    if (op == Operation::FpSqrt) {
        if (fpSign(a))
            return false;
        int ea_u = ea - fpExponentBias;
        int parity = ea_u & 1;
        d = (er - fpExponentBias) - (ea_u - parity) / 2;
    } else {
        double b = fpFromBits(b_bits);
        int eb = static_cast<int>(fpBiasedExponent(b));
        d = op == Operation::FpMul
                ? er - (ea + eb - fpExponentBias)
                : er - (ea - eb + fpExponentBias);
    }
    if (d < -2 || d > 2)
        return false;
    frac = fpFraction(r);
    delta = static_cast<int8_t>(d);
    // Safety: the payload must reproduce the exact result.
    uint64_t check;
    return reconstruct(a_bits, b_bits, frac, d, check) &&
           check == result_bits;
}

// The access step. lookup() runs locate + account, update() runs
// locate + install, and probeBlock() loops over all three, so every
// piece of per-access semantics below is written once. The steps are
// forced inline so that probeBlock()'s loop keeps the mode and the
// counters in registers.

[[gnu::always_inline]] inline void
MemoTable::classify(const Mode &m, Access &x)
{
    const uint64_t a = x.a, b = x.b;

    // Branch-free trivial pre-filter: a few integer compares decide
    // whether the operands can possibly be trivial (a zero / one /
    // extended-set constant is involved). Only those rare candidates
    // take the full detector, which remains the single source of
    // truth. NaN/inf operands need no test here: the detectors
    // classify them non-trivial anyway.
    if (m.filterTrivial) {
        constexpr uint64_t one = 0x3ff0000000000000ULL;
        constexpr uint64_t neg_one = 0xbff0000000000000ULL;
        bool rare = false;
        switch (m.op) {
          case Operation::IntMul:
            rare = (a == 0) | (b == 0) | (a == 1) | (b == 1);
            if (m.extTrivial)
                rare |= (a == ~uint64_t{0}) | (b == ~uint64_t{0});
            break;
          case Operation::FpMul:
            rare = ((a << 1) == 0) | ((b << 1) == 0) | (a == one) |
                   (b == one);
            if (m.extTrivial)
                rare |= (a == neg_one) | (b == neg_one);
            break;
          case Operation::FpDiv:
            // b == ±0 / NaN / inf are non-trivial; a == b (the ext
            // DivBySelf test) compares equal as doubles iff the bits
            // match, zeros and NaNs having been ruled out by the
            // detector itself.
            rare = ((a << 1) == 0) | (b == one);
            if (m.extTrivial)
                rare |= (b == neg_one) | (a == b);
            break;
          case Operation::FpSqrt:
            rare = m.extTrivial & (((a << 1) == 0) | (a == one));
            break;
          default:
            break;
        }
        // A local out-parameter, not &x.trivialResult: once x's
        // address escapes, x lives in memory instead of registers.
        uint64_t trivial_result = 0;
        if (rare && checkTrivial(m, a, b, trivial_result)) {
            x.kind = Access::Trivial;
            x.trivialResult = trivial_result;
            return;
        }
    }

    // Mantissa tags collide across numbers with equal fractions (that
    // is the point), but zero/subnormal/inf/NaN have no meaningful
    // mantissa identity; those accesses bypass the mantissa-mode table.
    if (m.mantissa && !(fpIsNormal(fpFromBits(a)) &&
                        (m.unary || fpIsNormal(fpFromBits(b))))) {
        x.kind = Access::Untaggable;
        return;
    }
    x.kind = Access::Tagged;

    // Tags: the operand bits, or in mantissa mode the fraction — for
    // sqrt with the exponent's parity folded in, since the result
    // mantissa depends on it.
    auto tag = [&](uint64_t bits) {
        if (!m.mantissa)
            return bits;
        uint64_t frac = bits & ((uint64_t{1} << fpMantissaBits) - 1);
        if (m.op == Operation::FpSqrt) {
            int e = static_cast<int>((bits >> fpMantissaBits) & 0x7ff) -
                    fpExponentBias;
            frac |= static_cast<uint64_t>(e & 1) << fpMantissaBits;
        }
        return frac;
    };
    x.tagA = tag(a);
    x.tagB = m.unary ? 0 : tag(b);
    // Commutative units store and compare one canonical tag order, so
    // a*b and b*a share an entry (section 2.2).
    if (commutableBits(m.op, a, b) && x.tagB < x.tagA)
        std::swap(x.tagA, x.tagB);
}

[[gnu::always_inline]] inline MemoTable::Access
MemoTable::locate(const Mode &m, uint64_t a, uint64_t b)
{
    Access x{};
    x.a = a;
    x.b = b;
    switch (m.hash) {
      case IndexHash::None:
        x.index = 0;
        break;
      case IndexHash::Int:
        x.index = indexInt(a, b, m.indexBits);
        break;
      case IndexHash::FpUnary:
        x.index = indexFpUnary(a, m.indexBits);
        break;
      case IndexHash::FpSum:
        x.index = indexFpSum(a, b, m.indexBits);
        break;
      case IndexHash::FpXor:
        x.index = indexFp(a, b, m.indexBits);
        break;
    }

    classify(m, x);
    if (x.kind != Access::Tagged)
        return x;

    if (m.infinite) {
        auto it = infTable.find(InfKey{x.tagA, x.tagB});
        if (it != infTable.end())
            x.inf = &it->second;
        return x;
    }

    x.set = &entries[x.index * m.ways];
    for (unsigned w = 0; w < m.ways; w++) {
        Entry &e = x.set[w];
        if (e.valid && e.tagA == x.tagA && e.tagB == x.tagB) {
            x.match = &e;
            break;
        }
    }
    return x;
}

template <bool Hooked>
[[gnu::always_inline]] inline bool
MemoTable::account(const Mode &m, Access &x, Tally &c, uint64_t &result)
{
    MemoStats &s = c.stats;
    if (x.kind == Access::Trivial) {
        if (m.bypassTrivial) {
            // Filtered before the table; not a lookup.
            s.trivialBypassed++;
            emit<Hooked>(TableEventKind::TrivialBypass, x.index, c);
            return false;
        }
        // Integrated: the detector inside the table supplies the result.
        s.lookups++;
        s.trivialHits++;
        emit<Hooked>(TableEventKind::TrivialHit, x.index, c);
        result = x.trivialResult;
        return true;
    }

    s.lookups++;
    if (x.inf) {
        result = x.inf->value;
        if (!m.mantissa || reconstruct(x.a, x.b, x.inf->value,
                                       x.inf->delta, result)) {
            s.hits++;
            emit<Hooked>(TableEventKind::Hit, x.index, c);
            return true;
        }
    } else if (Entry *e = x.match) {
        if (m.parity &&
            entryParity(e->tagA, e->tagB, e->value) != e->parity) {
            // Soft error detected: drop the entry, take the miss.
            e->valid = false;
            x.match = nullptr;
            s.parityMisses++;
            s.misses++;
            emit<Hooked>(TableEventKind::ParityAbort, x.index, c);
            return false;
        }
        result = e->value;
        if (!m.mantissa ||
            reconstruct(x.a, x.b, e->value, e->delta, result)) {
            if (m.lru)
                e->tick = ++c.tick;
            s.hits++;
            emit<Hooked>(TableEventKind::Hit, x.index, c);
            return true;
        }
    }
    // Untaggable, absent, or a mantissa entry whose result exponent
    // is unrepresentable for these operands.
    s.misses++;
    emit<Hooked>(TableEventKind::Miss, x.index, c);
    return false;
}

inline MemoTable::Entry &
MemoTable::victimEntry(const Mode &m, Entry *set)
{
    for (unsigned w = 0; w < m.ways; w++) {
        if (!set[w].valid)
            return set[w];
    }
    if (m.random) {
        // xorshift64 keeps runs deterministic.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return set[rng % m.ways];
    }
    // LRU and FIFO: the lowest tick (only LRU refreshes it on hits).
    Entry *victim = &set[0];
    for (unsigned w = 1; w < m.ways; w++) {
        if (set[w].tick < victim->tick)
            victim = &set[w];
    }
    return *victim;
}

template <bool Hooked>
[[gnu::always_inline]] inline void
MemoTable::install(const Mode &m, const Access &x, uint64_t result_bits,
                   Tally &c)
{
    uint64_t value = result_bits;
    int8_t delta = 0;
    if (m.mantissa) {
        uint64_t frac = 0;
        if (!derivePayload(x.a, x.b, result_bits, frac, delta))
            return;
        value = frac;
    }

    if (m.infinite) {
        if (x.inf) {
            *x.inf = InfValue{value, delta};
            return;
        }
        infTable.emplace(InfKey{x.tagA, x.tagB}, InfValue{value, delta});
        empty_ = false;
        c.stats.insertions++;
        emit<Hooked>(TableEventKind::Insert, x.index, c);
        return;
    }

    if (Entry *e = x.match) {
        // Already present (a mantissa entry that failed to
        // reconstruct, or refreshed by a racing unit); rewrite.
        e->value = value;
        e->delta = delta;
        if (m.parity)
            e->parity = entryParity(e->tagA, e->tagB, value);
        if (m.lru)
            e->tick = ++c.tick;
        return;
    }
    Entry &victim = victimEntry(m, x.set);
    if (victim.valid) {
        c.stats.evictions++;
        emit<Hooked>(TableEventKind::Evict, x.index, c);
    }
    victim.valid = true;
    victim.tagA = x.tagA;
    victim.tagB = x.tagB;
    victim.value = value;
    victim.delta = delta;
    if (m.parity)
        victim.parity = entryParity(x.tagA, x.tagB, value);
    victim.tick = ++c.tick;
    empty_ = false;
    c.stats.insertions++;
    emit<Hooked>(TableEventKind::Insert, x.index, c);
}

std::optional<uint64_t>
MemoTable::lookup(uint64_t a_bits, uint64_t b_bits)
{
    // Lazy window close at access start (core/phase.hh): the previous
    // access, including the update() a miss triggers, is fully
    // accounted before its window's row is cut.
    if (phase_)
        phaseSegment();
    Tally c{stats_, tick, 0};
    Access x = locate(mode_, a_bits, b_bits);
    uint64_t result = 0;
    if (account<true>(mode_, x, c, result))
        return result;
    return std::nullopt;
}

void
MemoTable::update(uint64_t a_bits, uint64_t b_bits, uint64_t result_bits)
{
    // Trivial and untaggable operations are never installed.
    Access x = locate(mode_, a_bits, b_bits);
    if (x.kind != Access::Tagged)
        return;
    Tally c{stats_, tick, 0};
    install<true>(mode_, x, result_bits, c);
}

template <bool Hooked>
void
MemoTable::probeLoop(const uint64_t *a_bits, const uint64_t *b_bits,
                     const uint64_t *result_bits, size_t n)
{
    // The mode, counters and clock live in registers for the whole
    // block; fold() writes them back at window closes and at the end.
    const Mode m = mode_;
    MemoStats counts;
    uint64_t t = tick;
    Tally c{counts, t, accessStamp()};
    auto fold = [&] {
        stats_.merge(counts);
        counts = MemoStats{};
        tick = t;
        c.stampBase = accessStamp();
    };

    size_t i = 0;
    while (i < n) {
        // With a phase accumulator attached, the block splits into
        // segments that end at window boundaries, so the per-access
        // path below carries no phase bookkeeping.
        size_t stop = n;
        if (phase_) {
            fold();
            uint64_t room = phaseSegment();
            stop = i + static_cast<size_t>(
                           std::min<uint64_t>(room, n - i));
        }
        for (; i < stop; i++) {
            Access x = locate(m, a_bits[i], b_bits[i]);
            uint64_t result = 0;
            if (!account<Hooked>(m, x, c, result) &&
                x.kind == Access::Tagged)
                install<Hooked>(m, x, result_bits[i], c);
        }
    }
    fold();
}

void
MemoTable::probeBlock(const uint64_t *a_bits, const uint64_t *b_bits,
                      const uint64_t *result_bits, size_t n)
{
    hooks_ ? probeLoop<true>(a_bits, b_bits, result_bits, n)
           : probeLoop<false>(a_bits, b_bits, result_bits, n);
}

// Keyed replay (core/access_key.hh). keyAccesses() runs classify(),
// the access step's own trivial filter and canonical tag order, once
// per operand column; replayKeyed() then runs only what depends on
// the table's geometry — set index, way match, victim choice — over
// the dense ids, and writes the final entries back.

namespace
{

/** The id of an empty way in replayKeyed()'s sets. No access meets
 *  it there: kTrivialKey accesses never reach a set, and ids stay
 *  below it. */
constexpr uint32_t kEmptyWay = kTrivialKey;

/**
 * Dense ids for canonical tag pairs, in order of first appearance:
 * an open-addressing table that stores each pair inline with its id,
 * so a probe touches one slot. Grown at half load. A std::unordered_map
 * keyed like the infinite table made the key pass 1.6x slower, and a
 * trace cache that readmits traces pays the key pass per admission.
 */
class PairIds
{
  public:
    uint32_t
    idOf(uint64_t a, uint64_t b)
    {
        const size_t mask = slots_.size() - 1;
        for (size_t s = slotOf(a, b);; s = (s + 1) & mask) {
            Slot &x = slots_[s];
            if (x.id == kFree) {
                x = Slot{a, b, count_++};
                if (2 * size_t{count_} > slots_.size())
                    grow();
                return count_ - 1;
            }
            if (x.a == a && x.b == b)
                return x.id;
        }
    }

  private:
    static constexpr uint32_t kFree = ~uint32_t{0};

    struct Slot
    {
        uint64_t a, b;
        uint32_t id;
    };

    size_t
    slotOf(uint64_t a, uint64_t b) const
    {
        // InfKeyHash's mix and one more multiply: the slot is the
        // top bits, and fp operands differ mostly in their high bits.
        uint64_t h = a * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 32;
        h += b * 0xc2b2ae3d27d4eb4fULL;
        h ^= h >> 29;
        h *= 0xff51afd7ed558ccdULL;
        return static_cast<size_t>(h >> (64 - bits_));
    }

    void
    grow()
    {
        std::vector<Slot> old(size_t{1} << ++bits_, Slot{0, 0, kFree});
        old.swap(slots_);
        const size_t mask = slots_.size() - 1;
        for (const Slot &x : old) {
            if (x.id == kFree)
                continue;
            size_t s = slotOf(x.a, x.b);
            while (slots_[s].id != kFree)
                s = (s + 1) & mask;
            slots_[s] = x;
        }
    }

    unsigned bits_ = 10;
    std::vector<Slot> slots_ =
        std::vector<Slot>(size_t{1} << 10, Slot{0, 0, kFree});
    uint32_t count_ = 0;
};

/** MemoTable::IndexHash of the keyed operations, as replayKeyed()'s
 *  loop is instantiated over it. */
enum class KeyHash
{
    None,
    Int,
    FpSum,
    FpXor,
};

/** The set index of an access from its key fields: indexInt,
 *  indexFpSum or indexFp of arith/hash.hh over the stored bits. */
template <KeyHash H>
inline size_t
keyedSet(uint32_t fields, unsigned bits)
{
    if constexpr (H == KeyHash::None) {
        return 0;
    } else if constexpr (H == KeyHash::Int) {
        return static_cast<size_t>(fields & detail::hashMask(bits));
    } else {
        const unsigned drop = kKeyFpIndexBits - bits;
        const uint32_t hi = (fields >> kKeyFpIndexBits) >> drop;
        const uint32_t lo = (fields & 0xffffu) >> drop;
        const uint32_t idx = H == KeyHash::FpSum ? hi + lo : hi ^ lo;
        return static_cast<size_t>(idx & detail::hashMask(bits));
    }
}

/** Bit w is set when lane w of the 4 ids at @p ids equals @p id. */
inline unsigned
equalLanes4(const uint32_t *ids, uint32_t id)
{
#if defined(__SSE2__)
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(ids));
    const __m128i eq =
        _mm_cmpeq_epi32(v, _mm_set1_epi32(static_cast<int>(id)));
    return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(eq)));
#else
    unsigned mask = 0;
    for (unsigned w = 0; w < 4; w++)
        mask |= static_cast<unsigned>(ids[w] == id) << w;
    return mask;
#endif
}

/** equalLanes4 over a set of @p Lanes (4 or 8) ids. */
template <unsigned Lanes>
inline unsigned
equalLanes(const uint32_t *ids, uint32_t id)
{
    if constexpr (Lanes == 4)
        return equalLanes4(ids, id);
    else
        return equalLanes4(ids, id) | equalLanes4(ids + 4, id) << 4;
}

/**
 * replayKeyed()'s sets: per set @p Lanes way ids (lanes past the
 * table's ways are padding the way mask hides), then @p Lanes ticks;
 * and per (set, way) the column position of the access that
 * installed the way, from which the entry is written back.
 */
struct KeyedSets
{
    unsigned ways;
    unsigned indexBits;
    bool lru;
    bool victimFault;
    uint32_t *blocks;
    uint32_t *source;
};

/**
 * The keyed access loop: probeBlock()'s account and install steps
 * for a FullValue, NonTrivialOnly, LRU/FIFO table, over ids. Counts
 * into @p s; @p clock is the table-relative tick.
 */
template <KeyHash H, unsigned Lanes>
void
keyedLoop(const AccessKey *keys, size_t n, const KeyedSets &k,
          MemoStats &s, uint32_t &clock)
{
    const unsigned way_mask = (1u << k.ways) - 1;
    uint32_t t = clock;
    uint64_t hits = 0, misses = 0, evictions = 0, bypassed = 0;
    for (size_t i = 0; i < n; i++) {
        const AccessKey key = keys[i];
        if (key.id == kTrivialKey) {
            bypassed++;
            continue;
        }
        const size_t set = keyedSet<H>(key.fields, k.indexBits);
        uint32_t *ids = k.blocks + set * 2 * Lanes;
        uint32_t *ticks = ids + Lanes;
        if (unsigned hit = equalLanes<Lanes>(ids, key.id) & way_mask) {
            hits++;
            if (k.lru)
                ticks[std::countr_zero(hit)] = ++t;
            continue;
        }
        misses++;
        unsigned way;
        if (unsigned free_ways =
                equalLanes<Lanes>(ids, kEmptyWay) & way_mask) {
            way = static_cast<unsigned>(std::countr_zero(free_ways));
        } else {
            // LRU and FIFO: the lowest tick, as victimEntry() picks.
            way = 0;
            for (unsigned w = 1; w < k.ways; w++)
                if (ticks[w] < ticks[way])
                    way = w;
            if (k.victimFault)
                way = (way + 1) % k.ways;
            evictions++;
        }
        ids[way] = key.id;
        ticks[way] = ++t;
        k.source[set * k.ways + way] = static_cast<uint32_t>(i);
    }
    s.lookups += hits + misses;
    s.hits += hits;
    s.misses += misses;
    s.insertions += misses;
    s.evictions += evictions;
    s.trivialBypassed += bypassed;
    clock = t;
}

template <unsigned Lanes>
void
keyedDispatch(KeyHash h, const AccessKey *keys, size_t n,
              const KeyedSets &k, MemoStats &s, uint32_t &clock)
{
    switch (h) {
      case KeyHash::None:
        return keyedLoop<KeyHash::None, Lanes>(keys, n, k, s, clock);
      case KeyHash::Int:
        return keyedLoop<KeyHash::Int, Lanes>(keys, n, k, s, clock);
      case KeyHash::FpSum:
        return keyedLoop<KeyHash::FpSum, Lanes>(keys, n, k, s, clock);
      case KeyHash::FpXor:
        return keyedLoop<KeyHash::FpXor, Lanes>(keys, n, k, s, clock);
    }
}

bool
keyedOperation(Operation op)
{
    return op == Operation::IntMul || op == Operation::FpMul ||
           op == Operation::FpDiv;
}

} // anonymous namespace

AccessKeys
MemoTable::keyAccesses(Operation operation, const uint64_t *a_bits,
                       const uint64_t *b_bits, size_t n)
{
    if (!keyedOperation(operation))
        throw std::invalid_argument(
            "keyAccesses: " + std::string(operationName(operation)) +
            " has no key stream");
    if (n >= kTrivialKey)
        throw std::invalid_argument(
            "keyAccesses: column too long for 32-bit ids");
    const Mode m = modeOf(operation, MemoConfig{}, 0);
    const bool fp = operation != Operation::IntMul;
    AccessKeys keys(n);
    PairIds ids;
    for (size_t i = 0; i < n; i++) {
        Access x{};
        x.a = a_bits[i];
        x.b = b_bits[i];
        classify(m, x);
        if (x.kind != Access::Tagged) {
            keys[i] = AccessKey{kTrivialKey, 0};
            continue;
        }
        const uint64_t fields =
            fp ? detail::topMantissa(x.a, kKeyFpIndexBits)
                         << kKeyFpIndexBits |
                     detail::topMantissa(x.b, kKeyFpIndexBits)
               : x.a ^ x.b;
        keys[i] = AccessKey{ids.idOf(x.tagA, x.tagB),
                            static_cast<uint32_t>(fields)};
    }
    return keys;
}

bool
MemoTable::keyedReplayable(size_t n) const
{
    // The key pass classified every access as a table of this
    // operation under the default config does; the table must agree.
    const Mode key = modeOf(op, MemoConfig{}, 0);
    const Mode &m = mode_;
    const unsigned field_bits = op == Operation::IntMul
                                    ? kKeyIntIndexBits
                                    : kKeyFpIndexBits;
    return keyedOperation(op) && m.filterTrivial == key.filterTrivial &&
           m.bypassTrivial == key.bypassTrivial &&
           m.extTrivial == key.extTrivial && m.mantissa == key.mantissa &&
           !m.random && !m.parity && !m.infinite && m.ways <= 8 &&
           m.indexBits <= field_bits && !hooks_ && !phase_ && empty_ &&
           n < kEmptyWay;
}

void
MemoTable::replayKeyed(const AccessKey *keys, const uint64_t *a_bits,
                       const uint64_t *b_bits,
                       const uint64_t *result_bits, size_t n)
{
    if (!keyedReplayable(n))
        throw std::logic_error("replayKeyed: table " + cfg.describe() +
                               " cannot replay keyed");
    const Mode &m = mode_;
    const unsigned sets = cfg.sets();
    const unsigned lanes = m.ways > 4 ? 8 : 4;
    std::vector<uint32_t> blocks(size_t{sets} * 2 * lanes, kEmptyWay);
    std::vector<uint32_t> source(size_t{sets} * m.ways);
    const KeyedSets k{
        .ways = m.ways,
        .indexBits = m.indexBits,
        .lru = m.lru,
        .victimFault = keyed_victim_fault.load(std::memory_order_relaxed),
        .blocks = blocks.data(),
        .source = source.data(),
    };
    const KeyHash h = m.hash == IndexHash::Int     ? KeyHash::Int
                      : m.hash == IndexHash::FpSum ? KeyHash::FpSum
                      : m.hash == IndexHash::FpXor ? KeyHash::FpXor
                                                   : KeyHash::None;
    MemoStats counts;
    uint32_t t = 0;
    if (lanes == 4)
        keyedDispatch<4>(h, keys, n, k, counts, t);
    else
        keyedDispatch<8>(h, keys, n, k, counts, t);

    // Write the final sets back as the entries probeBlock() leaves:
    // the installing access's canonical tags and result, its tick on
    // the table's clock. Ways never filled stay as they were (invalid).
    for (size_t set = 0; set < sets; set++) {
        const uint32_t *ids = &blocks[set * 2 * lanes];
        for (unsigned w = 0; w < m.ways; w++) {
            if (ids[w] == kEmptyWay)
                continue;
            const uint32_t i = source[set * m.ways + w];
            Access x{};
            x.a = a_bits[i];
            x.b = b_bits[i];
            classify(m, x);
            Entry &e = entries[set * m.ways + w];
            e.valid = true;
            e.tagA = x.tagA;
            e.tagB = x.tagB;
            e.value = result_bits[i];
            e.delta = 0;
            e.tick = tick + ids[lanes + w];
        }
    }
    if (counts.insertions)
        empty_ = false;
    tick += t;
    stats_.merge(counts);
}

} // namespace memo
