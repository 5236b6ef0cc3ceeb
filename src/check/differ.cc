#include "differ.hh"

#include <sstream>

namespace memo::check
{

namespace
{

std::string
hex(uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

std::string
describeAccess(uint64_t step, Operation op, uint64_t a, uint64_t b,
               uint64_t r)
{
    std::ostringstream os;
    os << " [step " << step << ", op " << operationName(op) << ", a "
       << hex(a) << ", b " << hex(b) << ", result " << hex(r) << "]";
    return os.str();
}

} // anonymous namespace

std::optional<std::string>
statsConserved(const MemoStats &s, const char *who)
{
    if (s.allHits() + s.misses == s.lookups)
        return std::nullopt;
    std::ostringstream os;
    os << who << " stats not conserved: hits " << s.hits
       << " + trivialHits " << s.trivialHits << " + misses " << s.misses
       << " != lookups " << s.lookups;
    return os.str();
}

MemoTableChecker::MemoTableChecker(Operation op, const MemoConfig &cfg,
                                   bool inject_tag_bug)
    : table(op, cfg), shadow(op, cfg), injectTagBug(inject_tag_bug)
{
}

std::optional<std::string>
MemoTableChecker::step(uint64_t a_bits, uint64_t b_bits,
                       uint64_t true_result)
{
    steps++;
    // Mutation self-test hook: a tag comparator that ignores the top
    // 16 bits of operand A. Operands that differ only there collide in
    // the real table and must be flagged by the invariants below.
    uint64_t real_a =
        injectTagBug ? a_bits & 0x0000ffffffffffffULL : a_bits;
    auto rv = table.lookup(real_a, b_bits);
    auto ov = shadow.lookup(a_bits, b_bits);
    auto where = [&] {
        return describeAccess(steps, table.operation(), a_bits, b_bits,
                              true_result) +
               " cfg " + table.config().describe();
    };

    if (rv && *rv != true_result)
        return "transparency violated: table hit returned " + hex(*rv) +
               ", computation unit produces " + hex(true_result) +
               where();
    if (ov && *ov != true_result)
        return "oracle self-check failed: oracle hit returned " +
               hex(*ov) + ", expected " + hex(true_result) + where();
    if (rv && !ov)
        return "containment violated: finite table hit where the "
               "unbounded oracle missed (tag aliasing)" +
               where();
    if (table.config().infinite && rv.has_value() != ov.has_value())
        return std::string("infinite-table equivalence violated: real ") +
               (rv ? "hit" : "miss") + " vs oracle " +
               (ov ? "hit" : "miss") + where();
    if (auto e = statsConserved(table.stats(), "real table"))
        return *e + where();
    if (auto e = statsConserved(shadow.stats(), "oracle"))
        return *e + where();
    if (!table.config().infinite &&
        table.validEntries() > table.config().entries)
        return "geometry violated: more valid entries than the table "
               "holds" +
               where();

    if (!rv)
        table.update(real_a, b_bits, true_result);
    if (!ov)
        shadow.update(a_bits, b_bits, true_result);
    return std::nullopt;
}

} // namespace memo::check
