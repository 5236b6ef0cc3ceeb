#include "oracle.hh"

#include "arith/fp.hh"
#include "arith/trivial.hh"
#include "core/check.hh"

namespace memo::check
{

OracleTable::OracleTable(Operation op, const MemoConfig &cfg)
    : op(op), cfg(cfg)
{
}

void
OracleTable::reset()
{
    table.clear();
    stats_.reset();
}

bool
OracleTable::trivialResult(uint64_t a_bits, uint64_t b_bits,
                           uint64_t &result) const
{
    bool ext = cfg.extendedTrivial;
    switch (op) {
      case Operation::IntMul:
        if (auto t = trivialIntMul(static_cast<int64_t>(a_bits),
                                   static_cast<int64_t>(b_bits), ext)) {
            result = static_cast<uint64_t>(t->result);
            return true;
        }
        return false;
      case Operation::FpMul:
        if (auto t = trivialFpMul(fpFromBits(a_bits),
                                  fpFromBits(b_bits), ext)) {
            result = fpBits(t->result);
            return true;
        }
        return false;
      case Operation::FpDiv:
        if (auto t = trivialFpDiv(fpFromBits(a_bits),
                                  fpFromBits(b_bits), ext)) {
            result = fpBits(t->result);
            return true;
        }
        return false;
      case Operation::FpSqrt:
        if (auto t = trivialFpSqrt(fpFromBits(a_bits), ext)) {
            result = fpBits(t->result);
            return true;
        }
        return false;
      default:
        return false;
    }
}

bool
OracleTable::mantissaMode() const
{
    return cfg.tagMode == TagMode::MantissaOnly &&
           (op == Operation::FpMul || op == Operation::FpDiv ||
            op == Operation::FpSqrt);
}

bool
OracleTable::taggable(uint64_t a_bits, uint64_t b_bits) const
{
    if (!mantissaMode())
        return true;
    return fpIsNormal(fpFromBits(a_bits)) &&
           (isUnary(op) || fpIsNormal(fpFromBits(b_bits)));
}

OracleTable::Key
OracleTable::keyOf(uint64_t a_bits, uint64_t b_bits) const
{
    constexpr uint64_t frac_mask = (uint64_t{1} << fpMantissaBits) - 1;
    uint64_t ta = a_bits;
    uint64_t tb = isUnary(op) ? 0 : b_bits;
    if (mantissaMode()) {
        ta = a_bits & frac_mask;
        if (op == Operation::FpSqrt) {
            // sqrt(m) and sqrt(2m) differ in mantissa: the exponent's
            // parity is part of the tag identity.
            int e = static_cast<int>((a_bits >> fpMantissaBits) & 0x7ff) -
                    fpExponentBias;
            ta |= static_cast<uint64_t>(e & 1) << fpMantissaBits;
        } else {
            tb = b_bits & frac_mask;
        }
    }
    Key k{ta, tb};
    // Commutative canonical order — except both-NaN fp pairs, whose
    // products are not bit-commutative (the unit propagates the first
    // operand's payload); those keep exact operand order. The rule
    // is restated here rather than shared with commutableBits()
    // (core/op.hh), so the oracle stays independent of the table.
    bool swap_ok = isCommutative(op) &&
                   !(op == Operation::FpMul && fpIsNaNBits(a_bits) &&
                     fpIsNaNBits(b_bits));
    if (swap_ok && k.b < k.a)
        std::swap(k.a, k.b);
    return k;
}

int
OracleTable::resultExponent(uint64_t a_bits, uint64_t b_bits,
                            int delta) const
{
    int ea = static_cast<int>((a_bits >> fpMantissaBits) & 0x7ff);
    if (op == Operation::FpSqrt) {
        int ea_u = ea - fpExponentBias;
        return (ea_u - (ea_u & 1)) / 2 + delta + fpExponentBias;
    }
    int eb = static_cast<int>((b_bits >> fpMantissaBits) & 0x7ff);
    return op == Operation::FpMul ? ea + eb - fpExponentBias + delta
                                  : ea - eb + fpExponentBias + delta;
}

std::optional<uint64_t>
OracleTable::lookup(uint64_t a_bits, uint64_t b_bits)
{
    uint64_t trivial;
    if (cfg.trivialMode != TrivialMode::CacheAll &&
        trivialResult(a_bits, b_bits, trivial)) {
        if (cfg.trivialMode == TrivialMode::NonTrivialOnly) {
            stats_.trivialBypassed++;
            return std::nullopt;
        }
        stats_.lookups++;
        stats_.trivialHits++;
        return trivial;
    }

    stats_.lookups++;
    if (!taggable(a_bits, b_bits)) {
        stats_.misses++;
        return std::nullopt;
    }

    auto it = table.find(keyOf(a_bits, b_bits));
    if (it == table.end()) {
        stats_.misses++;
        return std::nullopt;
    }

    uint64_t result = it->second.value;
    if (mantissaMode()) {
        unsigned sign = 0;
        if (op == Operation::FpSqrt) {
            if (a_bits >> 63) {
                // sqrt of a negative: the entry (keyed on the
                // mantissa) cannot represent the NaN result.
                stats_.misses++;
                return std::nullopt;
            }
        } else {
            sign = static_cast<unsigned>((a_bits >> 63) ^
                                         (b_bits >> 63));
        }
        int e = resultExponent(a_bits, b_bits, it->second.delta);
        if (e < 1 || e > 2046) {
            stats_.misses++;
            return std::nullopt;
        }
        result = fpBits(fpCompose(sign, static_cast<unsigned>(e),
                                  it->second.value));
    }
    stats_.hits++;
    return result;
}

void
OracleTable::update(uint64_t a_bits, uint64_t b_bits,
                    uint64_t result_bits)
{
    uint64_t trivial;
    if (cfg.trivialMode != TrivialMode::CacheAll &&
        trivialResult(a_bits, b_bits, trivial))
        return;
    if (!taggable(a_bits, b_bits))
        return;

    Payload p{result_bits, 0};
    if (mantissaMode()) {
        double r = fpFromBits(result_bits);
        if (!fpIsNormal(r))
            return;
        if (op == Operation::FpSqrt && (a_bits >> 63))
            return;
        int er = static_cast<int>(fpBiasedExponent(r));
        int d = er - resultExponent(a_bits, b_bits, 0);
        // The stored delta is a narrow field: results whose
        // normalization shifted further are not representable.
        if (d < -2 || d > 2)
            return;
        // The payload must reproduce the exact result, including the
        // sign the table will reconstruct.
        unsigned sign = op == Operation::FpSqrt
                            ? 0u
                            : static_cast<unsigned>((a_bits >> 63) ^
                                                    (b_bits >> 63));
        if (er < 1 || er > 2046 ||
            fpBits(fpCompose(sign, static_cast<unsigned>(er),
                             fpFraction(r))) != result_bits)
            return;
        p = Payload{fpFraction(r), d};
    }

    auto [it, inserted] = table.insert_or_assign(keyOf(a_bits, b_bits),
                                                 p);
    (void)it;
    if (inserted)
        stats_.insertions++;
}

SimResult
referenceCpuRun(const CpuConfig &cfg, const Trace &trace, MemoBank *bank)
{
    SimResult res;
    MemoryHierarchy hier(cfg.l1, cfg.l2, cfg.memoryLatency);

    MemoTable *tables[numInstClasses] = {};
    if (bank) {
        for (unsigned c = 0; c < numInstClasses; c++)
            if (auto op = memoOperation(static_cast<InstClass>(c)))
                tables[c] = bank->table(*op);
    }

    for (const Instruction &inst : trace) {
        const unsigned cls_idx = static_cast<unsigned>(inst.cls);
        unsigned lat;
        switch (inst.cls) {
          case InstClass::Load:
            lat = hier.load(inst.addr);
            break;
          case InstClass::Store:
            lat = hier.store(inst.addr);
            break;
          default: {
            lat = cfg.lat[inst.cls];
            if (MemoTable *table = tables[cls_idx]) {
                if (auto v = table->lookup(inst.a, inst.b)) {
                    // A successful lookup gives the result of a
                    // multi-cycle computation in a single cycle.
                    MEMO_CHECK(*v == inst.result,
                               "memoized value must match computation "
                               "(MEMO-TABLE transparency, section 2)");
                    res.memoSaved[cls_idx] += lat - 1;
                    lat = 1;
                } else {
                    table->update(inst.a, inst.b, inst.result);
                }
            }
            break;
          }
        }
        res.cycles[cls_idx] += lat;
        res.count[cls_idx]++;
        res.occupancy[cls_idx].record(lat);
        res.totalCycles += lat;
    }

    // Annulled delay slots: a deterministic fraction of branches
    // wastes one issue cycle each.
    uint64_t branches = res.count[static_cast<unsigned>(
        InstClass::Branch)];
    res.annulCycles = branches * cfg.annulPerMille / 1000;
    res.cycles[static_cast<unsigned>(InstClass::Branch)] +=
        res.annulCycles;
    res.totalCycles += res.annulCycles;

    if (bank) {
        for (Operation op : {Operation::IntMul, Operation::FpMul,
                             Operation::FpDiv, Operation::FpSqrt,
                             Operation::FpLog, Operation::FpSin,
                             Operation::FpCos, Operation::FpExp}) {
            if (const MemoTable *t = bank->table(op))
                res.memo[op] = t->stats();
        }
    }
    res.l1 = hier.l1().stats();
    res.l2 = hier.l2().stats();
    return res;
}

std::optional<std::string>
simResultDiff(const SimResult &want, const SimResult &got)
{
    auto differ = [](const std::string &what, uint64_t w, uint64_t g)
        -> std::optional<std::string> {
        if (w == g)
            return std::nullopt;
        return what + ": want " + std::to_string(w) + ", got " +
               std::to_string(g);
    };
    std::optional<std::string> d;
    if ((d = differ("totalCycles", want.totalCycles, got.totalCycles)) ||
        (d = differ("annulCycles", want.annulCycles, got.annulCycles)))
        return d;
    for (unsigned c = 0; c < numInstClasses; c++) {
        const std::string cls(instClassName(static_cast<InstClass>(c)));
        const obs::Histogram &hw = want.occupancy[c];
        const obs::Histogram &hg = got.occupancy[c];
        if ((d = differ("cycles." + cls, want.cycles[c], got.cycles[c])) ||
            (d = differ("count." + cls, want.count[c], got.count[c])) ||
            (d = differ("memoSaved." + cls, want.memoSaved[c],
                        got.memoSaved[c])))
            return d;
        if (hw.counts() != hg.counts() || hw.sum() != hg.sum())
            return "occupancy." + cls + ": want " + hw.serialize() +
                   ", got " + hg.serialize();
    }
    if (want.memo.size() != got.memo.size())
        return std::string("memo: tables differ");
    for (const auto &[op, w] : want.memo) {
        auto it = got.memo.find(op);
        if (it == got.memo.end())
            return "memo." + std::string(operationName(op)) + ": missing";
        const MemoStats &g = it->second;
        const std::string t = "memo." + std::string(operationName(op)) + ".";
        if ((d = differ(t + "lookups", w.lookups, g.lookups)) ||
            (d = differ(t + "hits", w.hits, g.hits)) ||
            (d = differ(t + "trivialHits", w.trivialHits, g.trivialHits)) ||
            (d = differ(t + "misses", w.misses, g.misses)) ||
            (d = differ(t + "insertions", w.insertions, g.insertions)) ||
            (d = differ(t + "evictions", w.evictions, g.evictions)) ||
            (d = differ(t + "trivialBypassed", w.trivialBypassed,
                        g.trivialBypassed)) ||
            (d = differ(t + "parityMisses", w.parityMisses,
                        g.parityMisses)))
            return d;
    }
    if ((d = differ("l1.accesses", want.l1.accesses, got.l1.accesses)) ||
        (d = differ("l1.hits", want.l1.hits, got.l1.hits)) ||
        (d = differ("l2.accesses", want.l2.accesses, got.l2.accesses)) ||
        (d = differ("l2.hits", want.l2.hits, got.l2.hits)))
        return d;
    return std::nullopt;
}

} // namespace memo::check
