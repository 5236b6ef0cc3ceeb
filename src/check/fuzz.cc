#include "fuzz.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "arith/fp.hh"
#include "check/differ.hh"
#include "core/bank.hh"
#include "core/memo_table.hh"
#include "sim/cpu.hh"
#include "trace/chunk_codec.hh"
#include "trace/trace.hh"

namespace memo::check
{

namespace
{

constexpr uint64_t fracMask = (uint64_t{1} << fpMantissaBits) - 1;
constexpr uint64_t signBit = uint64_t{1} << 63;

/** Derive an independent per-case RNG from the campaign seed. */
FuzzRng
caseRng(uint64_t seed, uint64_t case_index)
{
    uint64_t z = seed + case_index * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0x94d049bb133111ebULL;
    return FuzzRng(z ^ (z >> 31));
}

/** Small bounded pool of previously seen values, to force reuse. */
class ValuePool
{
  public:
    bool empty() const { return values.empty(); }

    uint64_t
    pick(FuzzRng &rng) const
    {
        return values[rng.below(values.size())];
    }

    void
    remember(FuzzRng &rng, uint64_t v)
    {
        if (values.size() < 48)
            values.push_back(v);
        else
            values[rng.below(values.size())] = v;
    }

  private:
    std::vector<uint64_t> values;
};

/**
 * An adversarial double, as raw bits: trivial operands, NaN payloads,
 * infinities, denormals, extreme exponents, and mutations of pooled
 * values that alias in tags (top-bit flips), mantissa-mode keys (same
 * fraction, new exponent) or sign.
 */
uint64_t
fuzzDoubleBits(FuzzRng &rng, ValuePool &pool)
{
    if (!pool.empty() && rng.chance(2, 5)) {
        uint64_t v = pool.pick(rng);
        switch (rng.below(4)) {
          case 0:
            return v; // exact reuse: the hit path
          case 1: {
            // High-bit alias: same low 48 bits, different top 16 —
            // bait for broken tag comparators (mutation self-test).
            uint64_t m = (rng.next() | 1) << 48;
            uint64_t w = v ^ m;
            pool.remember(rng, w);
            return w;
          }
          case 2: {
            // Same mantissa, different exponent: collides under
            // mantissa-only tags but must reconstruct correctly.
            uint64_t e = 1 + rng.below(2046);
            uint64_t w = (v & (signBit | fracMask)) | (e << 52);
            pool.remember(rng, w);
            return w;
          }
          default:
            return v ^ signBit; // sign flip
        }
    }

    uint64_t v;
    switch (rng.below(8)) {
      case 0: {
        // Trivial and near-trivial constants.
        static constexpr double k[] = {0.0, -0.0, 1.0, -1.0,
                                       2.0, 0.5,  4.0, -2.0};
        v = fpBits(k[rng.below(8)]);
        break;
      }
      case 1: {
        // NaN with a random (mostly quiet) payload.
        uint64_t payload = rng.next() & fracMask;
        if (rng.chance(7, 8))
            payload |= uint64_t{1} << 51; // quiet bit
        if ((payload & fracMask) == 0)
            payload = uint64_t{1} << 51;
        v = (rng.chance(1, 2) ? signBit : 0) | (0x7ffULL << 52) |
            payload;
        break;
      }
      case 2:
        v = (rng.chance(1, 2) ? signBit : 0) | (0x7ffULL << 52); // ±inf
        break;
      case 3: {
        // Denormal.
        uint64_t frac = rng.next() & fracMask;
        if (frac == 0)
            frac = 1;
        v = (rng.chance(1, 2) ? signBit : 0) | frac;
        break;
      }
      case 4: {
        // Extreme exponents: products/quotients overflow or go
        // subnormal, stressing mantissa-mode reconstruction limits.
        uint64_t e = rng.chance(1, 2) ? 1 + rng.below(60)
                                      : 1986 + rng.below(60);
        v = (rng.chance(1, 2) ? signBit : 0) | (e << 52) |
            (rng.next() & fracMask);
        break;
      }
      case 5:
        // Small integers, the bread and butter of image kernels.
        v = fpBits(static_cast<double>(rng.below(256)) *
                   (rng.chance(1, 4) ? -1.0 : 1.0));
        break;
      default: {
        // Random mid-range normal.
        uint64_t e = 512 + rng.below(1024);
        v = (rng.chance(1, 2) ? signBit : 0) | (e << 52) |
            (rng.next() & fracMask);
        break;
      }
    }
    pool.remember(rng, v);
    return v;
}

/** An adversarial integer operand. */
uint64_t
fuzzIntBits(FuzzRng &rng, ValuePool &pool)
{
    if (!pool.empty() && rng.chance(2, 5)) {
        uint64_t v = pool.pick(rng);
        if (rng.chance(1, 3)) {
            uint64_t w = v ^ ((rng.next() | 1) << 48); // high-bit alias
            pool.remember(rng, w);
            return w;
        }
        return v;
    }

    uint64_t v;
    switch (rng.below(6)) {
      case 0: {
        static constexpr int64_t k[] = {0, 1, -1, 2, -2, 255, 256, -256};
        v = static_cast<uint64_t>(k[rng.below(8)]);
        break;
      }
      case 1:
        v = static_cast<uint64_t>(INT64_MIN) + rng.below(4);
        break;
      case 2:
        v = uint64_t{1} << rng.below(63); // powers of two
        break;
      case 3:
        v = rng.below(1 << 16); // narrow operands
        break;
      default:
        v = rng.next();
        break;
    }
    pool.remember(rng, v);
    return v;
}

std::string
hex(uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** One generated table access. */
struct Access
{
    uint64_t a = 0;
    uint64_t b = 0;
};

std::vector<Access>
fuzzStream(FuzzRng &rng, Operation op, unsigned len)
{
    ValuePool pool_a, pool_b;
    std::vector<Access> stream;
    stream.reserve(len);
    bool fp = isFloat(op);
    for (unsigned i = 0; i < len; i++) {
        Access ac;
        // Sharing one pool across both operand slots produces squares
        // (a == b) and swapped pairs, the commutative edge cases.
        ValuePool &pb = rng.chance(1, 3) ? pool_a : pool_b;
        ac.a = fp ? fuzzDoubleBits(rng, pool_a)
                  : fuzzIntBits(rng, pool_a);
        if (!isUnary(op))
            ac.b = fp ? fuzzDoubleBits(rng, pb) : fuzzIntBits(rng, pb);
        stream.push_back(ac);
    }
    return stream;
}

/**
 * Greedy chunk-removal shrink (ddmin-lite): nullopt when @p stream
 * passes @p fails; otherwise repeatedly drop chunks whose removal
 * keeps it failing, and return the shrunk stream's failure. The
 * checkers are deterministic, so any candidate replay is exact.
 */
template <typename Fails>
std::optional<std::string>
shrinkStream(std::vector<Access> &stream, Fails &&fails)
{
    if (!fails(stream))
        return std::nullopt;
    size_t chunk = stream.size() / 2;
    while (chunk > 0) {
        bool removed = false;
        size_t i = 0;
        while (i + chunk <= stream.size() && stream.size() > 1) {
            std::vector<Access> cand;
            cand.reserve(stream.size() - chunk);
            cand.insert(cand.end(), stream.begin(),
                        stream.begin() + static_cast<long>(i));
            cand.insert(cand.end(),
                        stream.begin() + static_cast<long>(i + chunk),
                        stream.end());
            if (fails(cand)) {
                stream = std::move(cand);
                removed = true;
            } else {
                i += chunk;
            }
        }
        if (!removed)
            chunk /= 2;
    }
    return fails(stream);
}

std::string
dumpStream(Operation op, const std::vector<Access> &stream)
{
    std::ostringstream os;
    os << "shrunk to " << stream.size() << " accesses:";
    size_t shown = std::min<size_t>(stream.size(), 16);
    for (size_t i = 0; i < shown; i++) {
        os << "\n    " << operationName(op) << " a=" << hex(stream[i].a)
           << " b=" << hex(stream[i].b);
    }
    if (shown < stream.size())
        os << "\n    ... (" << (stream.size() - shown) << " more)";
    return os.str();
}

/** Case @p case_index's failure, with the one-line repro of its campaign. */
FuzzFailure
caseFailure(const FuzzOptions &opts, uint64_t case_index, std::string kind,
            std::string what, std::string detail)
{
    return {case_index, std::move(kind), std::move(what),
            "memo_fuzz --seed " + std::to_string(opts.seed) + " --iters " +
                std::to_string(case_index + 1) + " --stream " +
                std::to_string(opts.streamLen),
            std::move(detail)};
}

/**
 * MemoTable-vs-oracle differential: a fuzzed stream through one
 * MemoTableChecker. With inject_bug the checker's tag comparator
 * ignores the top 16 bits of operand A (the mutation self-test).
 */
std::optional<FuzzFailure>
tableCase(FuzzRng &rng, uint64_t case_index, const FuzzOptions &opts,
          bool inject_bug)
{
    Operation op = fuzzOperation(rng);
    MemoConfig cfg = fuzzConfig(rng);
    std::vector<Access> stream = fuzzStream(rng, op, opts.streamLen);

    auto fails = [&](const std::vector<Access> &s)
        -> std::optional<std::string> {
        MemoTableChecker checker(op, cfg, inject_bug);
        for (const Access &ac : s)
            if (auto e = checker.step(ac.a, ac.b,
                                      computeResult(op, ac.a, ac.b)))
                return e;
        return std::nullopt;
    };
    const std::optional<std::string> what = shrinkStream(stream, fails);
    if (!what)
        return std::nullopt;
    return caseFailure(
        opts, case_index,
        inject_bug ? "memo-table(+injected-tag-bug)" : "memo-table",
        *what,
        "op " + std::string(operationName(op)) + ", cfg " +
            cfg.describe() + "; " + dumpStream(op, stream));
}

/**
 * The state check of the replay differentials: @p want (the oracle,
 * named @p want_name) and @p got must agree on every statistic and on
 * the valid-entry count, and — now in supposedly identical states —
 * answer a second pass over the stream (@p a, @p b, results @p r)
 * with the same hit pattern and the same returned bits (the pass
 * mutates both tables, but symmetrically).
 * @return the first divergence, or nullopt
 */
std::optional<std::string>
compareTables(MemoTable &want, const char *want_name, MemoTable &got,
              const char *got_name, const std::vector<uint64_t> &a,
              const std::vector<uint64_t> &b,
              const std::vector<uint64_t> &r)
{
    const MemoStats &x = want.stats();
    const MemoStats &y = got.stats();
    const std::pair<const char *, std::pair<uint64_t, uint64_t>>
        fields[] = {
            {"lookups", {x.lookups, y.lookups}},
            {"hits", {x.hits, y.hits}},
            {"trivialHits", {x.trivialHits, y.trivialHits}},
            {"misses", {x.misses, y.misses}},
            {"insertions", {x.insertions, y.insertions}},
            {"evictions", {x.evictions, y.evictions}},
            {"trivialBypassed", {x.trivialBypassed, y.trivialBypassed}},
            {"parityMisses", {x.parityMisses, y.parityMisses}},
        };
    const std::string w = want_name, g = got_name;
    for (const auto &[name, v] : fields) {
        if (v.first != v.second)
            return std::string("stats diverge: ") + name + " " + w + "=" +
                   std::to_string(v.first) + " " + g + "=" +
                   std::to_string(v.second);
    }
    if (want.validEntries() != got.validEntries())
        return "valid entry counts diverge: " + w + "=" +
               std::to_string(want.validEntries()) + " " + g + "=" +
               std::to_string(got.validEntries());

    for (size_t i = 0; i < a.size(); i++) {
        auto va = want.lookup(a[i], b[i]);
        auto vb = got.lookup(a[i], b[i]);
        if (va != vb)
            return "stored contents diverge at readback " +
                   std::to_string(i) + ": " + w + " " +
                   (va ? hex(*va) : std::string("miss")) + ", " + g +
                   " " + (vb ? hex(*vb) : std::string("miss"));
        if (!va) {
            want.update(a[i], b[i], r[i]);
            got.update(a[i], b[i], r[i]);
        }
    }
    return std::nullopt;
}

/**
 * Batched-vs-scalar differential: the same fuzzed access stream is
 * driven through MemoTable::probeBlock (in a fuzzed block size) and
 * through the scalar lookup()/update() pair on an identically
 * configured table. Statistics, valid-entry counts and the stored
 * contents (checked by a second, pairwise lookup pass) must match
 * exactly — probeBlock documents scalar equivalence, and this case
 * holds it to that across every mode combination fuzzConfig() can
 * draw. With inject_block_bug the batched side drops the last access
 * of every full block (the off-by-one a blocked loop is most likely
 * to grow) and the harness must catch the divergence.
 */
std::optional<FuzzFailure>
batchedReplayCase(FuzzRng &rng, uint64_t case_index,
                  const FuzzOptions &opts, bool inject_block_bug)
{
    Operation op = fuzzOperation(rng);
    MemoConfig cfg = fuzzConfig(rng);
    std::vector<Access> stream = fuzzStream(rng, op, opts.streamLen);
    // Block sizes straddling the interesting boundaries: degenerate
    // single-access blocks, sizes that do not divide the stream, the
    // replay loop's own granularity, and larger-than-stream.
    static constexpr size_t block_sizes[] = {1,  2,   3,   7,
                                             64, 256, 512, 4096};
    const size_t block = block_sizes[rng.below(std::size(block_sizes))];

    auto fails = [=](const std::vector<Access> &s)
        -> std::optional<std::string> {
        MemoTable scalar(op, cfg);
        MemoTable batched(op, cfg);

        std::vector<uint64_t> a, b, r;
        a.reserve(s.size());
        b.reserve(s.size());
        r.reserve(s.size());
        for (const Access &ac : s) {
            uint64_t res = computeResult(op, ac.a, ac.b);
            if (!scalar.lookup(ac.a, ac.b))
                scalar.update(ac.a, ac.b, res);
            a.push_back(ac.a);
            b.push_back(ac.b);
            r.push_back(res);
        }
        for (size_t base = 0; base < a.size(); base += block) {
            size_t n = std::min(block, a.size() - base);
            if (inject_block_bug && n == block && n > 1)
                n--; // off-by-one: lose the block's last access
            batched.probeBlock(a.data() + base, b.data() + base,
                               r.data() + base, n);
        }

        return compareTables(scalar, "scalar", batched, "batched", a, b,
                             r);
    };

    const std::optional<std::string> what = shrinkStream(stream, fails);
    if (!what)
        return std::nullopt;
    return caseFailure(opts, case_index,
                       inject_block_bug
                           ? "batched-replay(+injected-block-bug)"
                           : "batched-replay",
                       *what,
                       "op " + std::string(operationName(op)) + ", cfg " +
                           cfg.describe() + ", block " +
                           std::to_string(block) + "; " +
                           dumpStream(op, stream));
}

/** A random table geometry and policy that keyed replay admits. */
MemoConfig
fuzzKeyedConfig(FuzzRng &rng)
{
    MemoConfig cfg;
    unsigned entries_log = static_cast<unsigned>(rng.below(14));
    cfg.entries = 1u << entries_log;
    cfg.ways = 1u << rng.below(std::min(entries_log, 3u) + 1);
    cfg.replacement =
        rng.chance(1, 3) ? Replacement::Fifo : Replacement::Lru;
    cfg.hashScheme = rng.chance(1, 3) ? HashScheme::PaperXor
                                      : HashScheme::Additive;
    return cfg;
}

/**
 * Keyed-vs-probeBlock differential: a fuzzed IntMul, FpMul or FpDiv
 * stream (repeats, commuted and both-NaN pairs, signed zeros, trivial
 * operands) is keyed by MemoTable::keyAccesses and replayed through
 * MemoTable::replayKeyed on a geometry keyed replay admits; an
 * identically configured table takes the same stream through
 * probeBlock, the keyed path's oracle, and compareTables() must find
 * no difference. With inject_victim_fault the keyed side evicts the
 * way after the policy's victim (setKeyedVictimFault), and the
 * harness must catch the divergence.
 */
std::optional<FuzzFailure>
keyedReplayCase(FuzzRng &rng, uint64_t case_index,
                const FuzzOptions &opts, bool inject_victim_fault)
{
    static constexpr Operation ops[] = {Operation::IntMul,
                                        Operation::FpMul,
                                        Operation::FpDiv};
    const Operation op = ops[rng.below(std::size(ops))];
    const MemoConfig cfg = fuzzKeyedConfig(rng);
    std::vector<Access> stream = fuzzStream(rng, op, opts.streamLen);

    auto fails = [=](const std::vector<Access> &s)
        -> std::optional<std::string> {
        std::vector<uint64_t> a, b, r;
        for (const Access &ac : s) {
            a.push_back(ac.a);
            b.push_back(ac.b);
            r.push_back(computeResult(op, ac.a, ac.b));
        }
        MemoTable oracle(op, cfg);
        MemoTable keyed(op, cfg);
        oracle.probeBlock(a.data(), b.data(), r.data(), a.size());
        const AccessKeys keys =
            MemoTable::keyAccesses(op, a.data(), b.data(), a.size());
        setKeyedVictimFault(inject_victim_fault);
        keyed.replayKeyed(keys.data(), a.data(), b.data(), r.data(),
                          a.size());
        setKeyedVictimFault(false);
        return compareTables(oracle, "probeBlock", keyed, "keyed", a, b,
                             r);
    };

    const std::optional<std::string> what = shrinkStream(stream, fails);
    if (!what)
        return std::nullopt;
    return caseFailure(opts, case_index,
                       inject_victim_fault
                           ? "keyed-replay(+injected-victim-bug)"
                           : "keyed-replay",
                       *what,
                       "op " + std::string(operationName(op)) + ", cfg " +
                           cfg.describe() + "; " + dumpStream(op, stream));
}

/**
 * A random but valid memory hierarchy: power-of-two line sizes and
 * set counts, 1-8 ways, and in one case in three a memory latency
 * past MemoryPass::kCountedLatency, so the walk's list of long
 * latencies is exercised.
 */
void
fuzzHierarchy(FuzzRng &rng, CpuConfig &cfg)
{
    auto level = [&](unsigned line_log2, unsigned sets_log2,
                     unsigned lat_lo, unsigned lat_n) {
        CacheConfig c;
        c.lineSize = 1u << (line_log2 + rng.below(3));
        c.ways = 1u << rng.below(4);
        c.size = uint64_t{c.lineSize} * c.ways
                 << rng.below(sets_log2 + 1);
        c.hitLatency = static_cast<unsigned>(lat_lo + rng.below(lat_n));
        return c;
    };
    cfg.l1 = level(4, 6, 1, 3);  // 16-64 B lines, 1-64 sets
    cfg.l2 = level(5, 9, 3, 12); // 32-128 B lines, 1-512 sets
    cfg.memoryLatency = static_cast<unsigned>(
        rng.chance(1, 3) ? 65 + rng.below(200) : 20 + rng.below(40));
}

/**
 * @p cfg with one field of its hierarchy's geometry key changed: a
 * level's size, line size (size kept per set), ways (sets kept) or
 * hit latency, or the memory latency.
 */
CpuConfig
perturbHierarchy(FuzzRng &rng, CpuConfig cfg)
{
    const uint64_t field = rng.below(9);
    if (field == 8) {
        cfg.memoryLatency += static_cast<unsigned>(1 + rng.below(100));
        return cfg;
    }
    CacheConfig &c = field < 4 ? cfg.l1 : cfg.l2;
    switch (field % 4) {
      case 0:
        c.size *= 2;
        break;
      case 1:
        c.lineSize *= 2;
        c.size *= 2;
        break;
      case 2:
        c.ways *= 2;
        c.size *= 2;
        break;
      default:
        c.hitLatency += static_cast<unsigned>(1 + rng.below(4));
        break;
    }
    return cfg;
}

/** One line naming every field of @p cfg's hierarchy. */
std::string
describeHierarchy(const CpuConfig &cfg)
{
    std::ostringstream os;
    for (const CacheConfig *c : {&cfg.l1, &cfg.l2})
        os << (c == &cfg.l1 ? "L1 " : ", L2 ") << c->size << " B/"
           << c->lineSize << " B lines/" << c->ways << "-way/"
           << c->hitLatency << " cyc";
    os << ", memory " << cfg.memoryLatency << " cyc";
    return os.str();
}

/**
 * Whole-CPU differential: a random instruction trace replayed with
 * and without a random memo bank under a random memory hierarchy must
 * equal check::referenceCpuRun (the per-instruction loop) on an
 * identically configured bank, field for field and in every table's
 * contents; retain instruction counts, never get slower, and keep
 * every table's statistics conserved against the per-class dynamic
 * counts. The memoized run is made twice, so the second reads the
 * memory pass the first left on the store; the baseline is made on
 * the store and on a copy of it, which walks afresh; and one more
 * run under a second geometry on the same store must walk for itself.
 * With inject_key_fault the pass's geometry key ignores the L2 hit
 * latency (setMemoryPassKeyFault), and the harness must catch the run
 * that reads a pass of another geometry. With MEMO_VERIFY the replay
 * additionally asserts bit transparency on every hit (probeBlock and
 * keyed replay in core/memo_table.cc).
 */
std::optional<FuzzFailure>
cpuCase(FuzzRng &rng, uint64_t case_index, const FuzzOptions &opts,
        bool inject_key_fault)
{
    static constexpr InstClass classes[] = {
        InstClass::IntAlu, InstClass::IntAlu, InstClass::Load,
        InstClass::Store,  InstClass::Branch, InstClass::FpAdd,
        InstClass::IntMul, InstClass::FpMul,  InstClass::FpMul,
        InstClass::FpDiv,  InstClass::FpSqrt};

    // Addresses fall in a span of 64 B to 512 KiB, so small spans hit
    // in L1 and larger ones in L2 or memory.
    const uint64_t span = uint64_t{8} << rng.below(17);
    ValuePool ipool, fpool_a, fpool_b;
    Trace trace;
    for (unsigned i = 0; i < opts.streamLen; i++) {
        Instruction inst;
        inst.cls = classes[rng.below(std::size(classes))];
        if (auto op = memoOperation(inst.cls)) {
            bool fp = isFloat(*op);
            inst.a = fp ? fuzzDoubleBits(rng, fpool_a)
                        : fuzzIntBits(rng, ipool);
            if (!isUnary(*op))
                inst.b = fp ? fuzzDoubleBits(rng, fpool_b)
                            : fuzzIntBits(rng, ipool);
            inst.result = computeResult(*op, inst.a, inst.b);
        } else if (inst.cls == InstClass::Load ||
                   inst.cls == InstClass::Store) {
            inst.addr = rng.below(span) * 8;
        }
        trace.push(inst);
    }

    CpuConfig ccfg;
    fuzzHierarchy(rng, ccfg);
    const CpuConfig other_cfg = perturbHierarchy(rng, ccfg);
    CpuModel cpu(ccfg);

    MemoBank bank, bank_again, ref_bank;
    Operation memo_ops[] = {Operation::IntMul, Operation::FpMul,
                            Operation::FpDiv, Operation::FpSqrt};
    for (Operation op : memo_ops) {
        if (rng.chance(3, 4)) {
            const MemoConfig cfg = fuzzConfig(rng);
            for (MemoBank *b : {&bank, &bank_again, &ref_bank})
                b->addTable(op, cfg);
        }
    }

    setMemoryPassKeyFault(inject_key_fault);
    SimResult memod = cpu.run(trace, &bank);
    SimResult memod_again = cpu.run(trace, &bank_again);
    SimResult base = cpu.run(trace);
    SimResult again = cpu.run(Trace(trace));
    SimResult other = CpuModel(other_cfg).run(trace);
    setMemoryPassKeyFault(false);
    SimResult ref_base = referenceCpuRun(ccfg, trace);
    SimResult ref_memod = referenceCpuRun(ccfg, trace, &ref_bank);
    SimResult ref_other = referenceCpuRun(other_cfg, trace);

    auto fail = [&](const std::string &what) {
        return caseFailure(opts, case_index, "cpu-differential", what,
                           "trace of " + std::to_string(trace.size()) +
                               " instructions; hierarchy " +
                               describeHierarchy(ccfg) + "; second " +
                               describeHierarchy(other_cfg));
    };

    if (base.totalCycles != again.totalCycles ||
        base.cycles != again.cycles)
        return fail("baseline replay is not deterministic");
    struct Run
    {
        const SimResult &got, &want;
        const char *what;
    };
    for (const Run &r :
         {Run{base, ref_base, "baseline run"},
          Run{again, ref_base, "baseline run on a copy of the trace"},
          Run{memod, ref_memod, "memoized run"},
          Run{memod_again, ref_memod, "second memoized run"},
          Run{other, ref_other,
              "baseline run under the second geometry"}}) {
        if (auto d = simResultDiff(r.want, r.got))
            return fail(std::string(r.what) +
                        " diverges from the reference loop: " + *d);
    }
    if (base.count != memod.count)
        return fail("memoization changed dynamic instruction counts");
    if (memod.totalCycles > base.totalCycles)
        return fail("memoized run slower than baseline: " +
                    std::to_string(memod.totalCycles) + " > " +
                    std::to_string(base.totalCycles) + " cycles");

    for (Operation op : memo_ops) {
        const MemoTable *t = bank.table(op);
        if (!t)
            continue;
        const MemoStats &s = t->stats();
        if (auto e = statsConserved(s, operationName(op).data()))
            return fail(*e);
        InstClass cls = instClassOf(op);
        uint64_t presented = s.lookups + s.trivialBypassed;
        if (presented != memod.countOf(cls))
            return fail(std::string(operationName(op)) +
                        ": lookups + bypassed (" +
                        std::to_string(presented) +
                        ") != dynamic count (" +
                        std::to_string(memod.countOf(cls)) + ")");
        // Exact cycle accounting: hits complete in 1 cycle, every
        // other presented operation pays the unit latency.
        uint64_t lat = ccfg.lat[cls];
        uint64_t expect =
            s.allHits() + (memod.countOf(cls) - s.allHits()) * lat;
        if (memod.cyclesOf(cls) != expect)
            return fail(std::string(operationName(op)) +
                        " cycle accounting: got " +
                        std::to_string(memod.cyclesOf(cls)) +
                        ", expected " + std::to_string(expect));
    }
    // Last: the readback pass of compareTables() mutates both banks.
    for (Operation op : memo_ops) {
        MemoTable *t = bank.table(op);
        if (!t)
            continue;
        const TraceStore::ClassColumns &col =
            trace.store().classColumns(instClassOf(op));
        if (auto d = compareTables(*ref_bank.table(op), "reference", *t,
                                   "CpuModel", col.a, col.b, col.r))
            return fail(std::string(operationName(op)) + ": " + *d);
    }
    return std::nullopt;
}

/**
 * Chunk-codec differential (the spill tier's byte format,
 * trace/chunk_codec.hh): a random trace must survive
 * encode -> decode bit-exactly at an arbitrary chunk width — including
 * widths that do not divide the column lengths — and flipping any
 * single bit of any encoded chunk or of the manifest, or rewriting one
 * class byte so the class column implies one operand record more or
 * fewer than the operand columns hold, must be rejected with
 * SpillError, never silently decoded. With inject_split_fault the
 * clean decode ends the first class one word late
 * (setChunkSplitFault), and the harness must catch it.
 */
std::optional<FuzzFailure>
chunkCodecCase(FuzzRng &rng, uint64_t case_index,
               const FuzzOptions &opts, bool inject_split_fault)
{
    static constexpr InstClass classes[] = {
        InstClass::IntAlu, InstClass::IntAlu, InstClass::Load,
        InstClass::Store,  InstClass::Branch, InstClass::FpAdd,
        InstClass::IntMul, InstClass::FpMul,  InstClass::FpMul,
        InstClass::FpDiv,  InstClass::FpSqrt, InstClass::FpLog,
        InstClass::FpSin,  InstClass::FpCos,  InstClass::FpExp};

    ValuePool ipool, fpool_a, fpool_b;
    Trace trace;
    // 0..streamLen records: short and empty traces are format edge
    // cases (zero-chunk columns) the round-trip must cover too.
    unsigned len = static_cast<unsigned>(rng.below(opts.streamLen + 1));
    for (unsigned i = 0; i < len; i++) {
        Instruction inst;
        inst.cls = classes[rng.below(std::size(classes))];
        if (auto op = memoOperation(inst.cls)) {
            bool fp = isFloat(*op);
            inst.a = fp ? fuzzDoubleBits(rng, fpool_a)
                        : fuzzIntBits(rng, ipool);
            if (!isUnary(*op))
                inst.b = fp ? fuzzDoubleBits(rng, fpool_b)
                            : fuzzIntBits(rng, ipool);
            inst.result = computeResult(*op, inst.a, inst.b);
        } else if (inst.cls == InstClass::Load ||
                   inst.cls == InstClass::Store) {
            inst.addr = rng.below(1 << 20) * 8;
        }
        trace.push(inst);
    }

    static constexpr uint32_t widths[] = {1, 2, 3, 7, 64, 1024, 65536};
    const uint32_t chunk_elems = widths[rng.below(std::size(widths))];

    auto fail = [&](const std::string &what) {
        return caseFailure(opts, case_index,
                           inject_split_fault
                               ? "chunk-codec(+injected-split-bug)"
                               : "chunk-codec",
                           what,
                           "trace of " + std::to_string(trace.size()) +
                               " instructions, chunk width " +
                               std::to_string(chunk_elems));
    };

    EncodedTrace enc = encodeTraceChunked(trace, chunk_elems);
    Trace back;
    setChunkSplitFault(inject_split_fault);
    try {
        back = decodeTraceChunked(enc);
    } catch (const SpillError &e) {
        setChunkSplitFault(false);
        return fail(std::string("clean decode rejected: ") + e.what());
    }
    setChunkSplitFault(false);
    if (back.size() != trace.size())
        return fail("decode changed record count: " +
                    std::to_string(trace.size()) + " -> " +
                    std::to_string(back.size()));
    size_t i = 0;
    for (auto x = trace.begin(), y = back.begin(); x != trace.end();
         ++x, ++y, ++i) {
        const Instruction a = *x, b = *y;
        if (a.cls != b.cls || a.a != b.a || a.b != b.b ||
            a.result != b.result || a.addr != b.addr)
            return fail("decode not bit-exact at record " +
                        std::to_string(i));
    }

    // The class column decides how many words of each operand column
    // every class owns: rewrite one class byte between a class with
    // operands and one without (neither an address class, so only the
    // operand count moves), re-encode its cls chunk, and decode.
    const size_t at = rng.below(trace.size() + 1);
    if (at < trace.size() &&
        !TraceStore::hasAddress(
            static_cast<InstClass>(trace.store().clsData()[at]))) {
        const bool had = TraceStore::hasOperands(
            static_cast<InstClass>(trace.store().clsData()[at]));
        InstClass to;
        do
            to = classes[rng.below(std::size(classes))];
        while (TraceStore::hasOperands(to) == had ||
               TraceStore::hasAddress(to));
        EncodedTrace bad = enc;
        const auto col = static_cast<size_t>(TraceColumn::Cls);
        EncodedChunk &ch = bad.cols[col][at / chunk_elems];
        std::vector<uint8_t> cls(ch.bytes.begin() + kChunkHeaderBytes,
                                 ch.bytes.end());
        cls[at % chunk_elems] = static_cast<uint8_t>(to);
        ch = encodeChunk(cls.data(), ch.elems);
        bad.manifest.cols[col][at / chunk_elems].hash = ch.hash;
        try {
            decodeTraceChunked(bad);
            return fail("record " + std::to_string(at) +
                        " rewritten to class " +
                        std::to_string(static_cast<unsigned>(to)) +
                        " decoded without error");
        } catch (const SpillError &) {
            // expected
        }
    }

    // Manifest round-trip.
    TraceManifest m = enc.manifest;
    m.key = "fuzz|case";
    std::string mbytes = encodeManifest(m);
    try {
        // Every field is encoded, so a decode that dropped or changed
        // one re-encodes to other bytes.
        if (encodeManifest(decodeManifest(mbytes)) != mbytes)
            return fail("manifest round-trip changed its bytes");
    } catch (const SpillError &e) {
        return fail(std::string("clean manifest rejected: ") +
                    e.what());
    }

    // Corruption detection: every bit of every artifact is load-
    // bearing (header fields are checked, payloads are hashed), so a
    // random single-bit flip must throw — reaching the element
    // comparison above would mean corruption decoded silently.
    std::vector<EncodedChunk *> chunks;
    for (std::vector<EncodedChunk> &col : enc.cols)
        for (EncodedChunk &ch : col)
            chunks.push_back(&ch);
    if (!chunks.empty()) {
        EncodedChunk *victim = chunks[rng.below(chunks.size())];
        size_t byte = rng.below(victim->bytes.size());
        victim->bytes[byte] = static_cast<char>(
            static_cast<uint8_t>(victim->bytes[byte]) ^
            (1u << rng.below(8)));
        try {
            decodeTraceChunked(enc);
            return fail("flipped bit " + std::to_string(byte * 8) +
                        " of a chunk decoded without error");
        } catch (const SpillError &) {
            // expected
        }
    }
    size_t mbit = rng.below(mbytes.size());
    mbytes[mbit] = static_cast<char>(
        static_cast<uint8_t>(mbytes[mbit]) ^ (1u << rng.below(8)));
    try {
        decodeManifest(mbytes);
        return fail("flipped manifest byte " + std::to_string(mbit) +
                    " parsed without error");
    } catch (const SpillError &) {
        // expected
    }
    return std::nullopt;
}

} // anonymous namespace

MemoConfig
fuzzConfig(FuzzRng &rng)
{
    MemoConfig cfg;
    unsigned entries_log = static_cast<unsigned>(rng.below(9));
    unsigned max_ways_log = std::min(entries_log, 3u);
    cfg.entries = 1u << entries_log;
    cfg.ways = 1u << rng.below(max_ways_log + 1);
    cfg.infinite = rng.chance(1, 6);
    cfg.tagMode = rng.chance(1, 3) ? TagMode::MantissaOnly
                                   : TagMode::FullValue;
    static constexpr TrivialMode trivial[] = {
        TrivialMode::CacheAll, TrivialMode::NonTrivialOnly,
        TrivialMode::Integrated};
    cfg.trivialMode = trivial[rng.below(3)];
    static constexpr Replacement repl[] = {
        Replacement::Lru, Replacement::Fifo, Replacement::Random};
    cfg.replacement = repl[rng.below(3)];
    cfg.hashScheme = rng.chance(1, 3) ? HashScheme::PaperXor
                                      : HashScheme::Additive;
    cfg.extendedTrivial = rng.chance(1, 4);
    cfg.parityProtected = rng.chance(1, 4);
    return cfg;
}

Operation
fuzzOperation(FuzzRng &rng)
{
    static constexpr Operation ops[] = {
        Operation::IntMul, Operation::IntMul, Operation::FpMul,
        Operation::FpMul,  Operation::FpMul,  Operation::FpDiv,
        Operation::FpDiv,  Operation::FpSqrt, Operation::FpLog,
        Operation::FpSin,  Operation::FpCos,  Operation::FpExp};
    return ops[rng.below(std::size(ops))];
}

uint64_t
computeResult(Operation op, uint64_t a_bits, uint64_t b_bits)
{
    switch (op) {
      case Operation::IntMul:
        return a_bits * b_bits; // wrap-around product
      case Operation::FpMul:
        return fpBits(fpFromBits(a_bits) * fpFromBits(b_bits));
      case Operation::FpDiv:
        return fpBits(fpFromBits(a_bits) / fpFromBits(b_bits));
      case Operation::FpSqrt:
        return fpBits(std::sqrt(fpFromBits(a_bits)));
      case Operation::FpLog:
        return fpBits(std::log(fpFromBits(a_bits)));
      case Operation::FpSin:
        return fpBits(std::sin(fpFromBits(a_bits)));
      case Operation::FpCos:
        return fpBits(std::cos(fpFromBits(a_bits)));
      case Operation::FpExp:
        return fpBits(std::exp(fpFromBits(a_bits)));
    }
    return 0;
}

std::optional<FuzzFailure>
runFuzzCase(uint64_t case_index, const FuzzOptions &opts)
{
    FuzzRng rng = caseRng(opts.seed, case_index);
    switch (rng.below(7)) {
      case 0:
      case 1:
      case 2:
        return tableCase(rng, case_index, opts, false);
      case 3:
        return batchedReplayCase(rng, case_index, opts, false);
      case 4:
        return keyedReplayCase(rng, case_index, opts, false);
      case 5:
        return chunkCodecCase(rng, case_index, opts, false);
      default:
        return cpuCase(rng, case_index, opts, false);
    }
}

std::optional<FuzzFailure>
fuzz(const FuzzOptions &opts, std::ostream *log)
{
    for (uint64_t i = 0; i < opts.iters; i++) {
        if (auto f = runFuzzCase(i, opts)) {
            if (log) {
                *log << "FAIL case " << f->caseIndex << " [" << f->kind
                     << "]\n  " << f->what << "\n  " << f->detail
                     << "\n  repro: " << f->repro << "\n";
            }
            return f;
        }
        if (opts.progress)
            opts.progress->fetch_add(1, std::memory_order_relaxed);
        if (log && opts.verbose && (i + 1) % 1000 == 0)
            *log << "  ..." << (i + 1) << "/" << opts.iters
                 << " cases ok\n";
    }
    if (log)
        *log << "ok: " << opts.iters << " fuzz cases, seed "
             << opts.seed << ", no invariant violations\n";
    return std::nullopt;
}

bool
mutationSelfTest(const FuzzOptions &opts, std::ostream *log)
{
    // Runs @p run_case over the campaign until it reports the
    // injected @p bug; every harness runs, caught or not.
    auto caught = [&](const char *bug, const char *missed,
                      const auto &run_case) {
        for (uint64_t i = 0; i < opts.iters; i++) {
            FuzzRng rng = caseRng(opts.seed, i);
            if (auto f = run_case(rng, i)) {
                if (log)
                    *log << bug << " mutation caught at case " << i
                         << ": " << f->what << "\n  " << f->detail
                         << "\n";
                return true;
            }
        }
        if (log)
            *log << "MUTATION MISSED: injected " << missed
                 << " survived " << opts.iters << " cases (seed "
                 << opts.seed << ")\n";
        return false;
    };
    const bool tag = caught(
        "tag", "tag-comparison bug", [&](FuzzRng &rng, uint64_t i) {
            return tableCase(rng, i, opts, true);
        });
    const bool block = caught(
        "block", "block-boundary off-by-one",
        [&](FuzzRng &rng, uint64_t i) {
            return batchedReplayCase(rng, i, opts, true);
        });
    const bool victim = caught(
        "victim", "keyed victim off-by-one",
        [&](FuzzRng &rng, uint64_t i) {
            return keyedReplayCase(rng, i, opts, true);
        });
    const bool key = caught(
        "memory-pass key",
        "memory-pass key ignoring the L2 hit latency",
        [&](FuzzRng &rng, uint64_t i) {
            return cpuCase(rng, i, opts, true);
        });
    const bool split = caught(
        "chunk-codec split", "chunk-codec class split one word late",
        [&](FuzzRng &rng, uint64_t i) {
            return chunkCodecCase(rng, i, opts, true);
        });
    return tag && block && victim && key && split;
}

} // namespace memo::check
