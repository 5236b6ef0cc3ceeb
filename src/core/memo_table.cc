#include "memo_table.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

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
    // The mantissa-only design covers the operations whose result
    // exponent is a simple function of the operand exponents:
    // multiply/divide (sum/difference) and square root (halving, with
    // the exponent's parity folded into the tag since sqrt(m) and
    // sqrt(2m) have different mantissas).
    bool mantissa_op = op == Operation::FpMul ||
                       op == Operation::FpDiv || op == Operation::FpSqrt;
    mode_ = Mode{
        .op = op,
        .hash = index_bits == 0              ? IndexHash::None
                : op == Operation::IntMul    ? IndexHash::Int
                : isUnary(op)                ? IndexHash::FpUnary
                : cfg.hashScheme == HashScheme::Additive ? IndexHash::FpSum
                                                         : IndexHash::FpXor,
        .indexBits = index_bits,
        .ways = cfg.ways,
        .filterTrivial = cfg.trivialMode != TrivialMode::CacheAll,
        .bypassTrivial = cfg.trivialMode == TrivialMode::NonTrivialOnly,
        .extTrivial = cfg.extendedTrivial,
        .mantissa = cfg.tagMode == TagMode::MantissaOnly && mantissa_op,
        .unary = isUnary(op),
        .lru = cfg.replacement == Replacement::Lru,
        .random = cfg.replacement == Replacement::Random,
        .parity = cfg.parityProtected,
        .infinite = cfg.infinite,
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

} // anonymous namespace

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
    assert(!cfg.infinite);
    assert(set < cfg.sets() && way < cfg.ways && bit < 64);
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
MemoTable::checkTrivial(uint64_t a_bits, uint64_t b_bits,
                        uint64_t &result) const
{
    bool ext = cfg.extendedTrivial;
    switch (op) {
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
        if (rare && checkTrivial(a, b, trivial_result)) {
            x.kind = Access::Trivial;
            x.trivialResult = trivial_result;
            return x;
        }
    }

    // Mantissa tags collide across numbers with equal fractions (that
    // is the point), but zero/subnormal/inf/NaN have no meaningful
    // mantissa identity; those accesses bypass the mantissa-mode table.
    if (m.mantissa && !(fpIsNormal(fpFromBits(a)) &&
                        (m.unary || fpIsNormal(fpFromBits(b))))) {
        x.kind = Access::Untaggable;
        return x;
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

} // namespace memo
