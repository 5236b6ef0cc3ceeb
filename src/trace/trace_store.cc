#include "trace_store.hh"

#include <array>
#include <string>
#include <utility>

#include "trace/chunk_codec.hh"

namespace memo
{

std::vector<uint64_t>
TraceStore::classCounts() const
{
    std::vector<uint64_t> counts(numInstClasses, 0);
    for (uint8_t c : cls_)
        counts[c]++;
    return counts;
}

TraceStore
TraceStore::adopt(Columns &&cols)
{
    const size_t n = cols.cls.size();
    const size_t nOps = cols.opCls.size();
    const size_t nAddrs = cols.addr.size();
    if (cols.pc.size() != n)
        throw SpillError("pc: column has " +
                         std::to_string(cols.pc.size()) +
                         " elements, cls has " + std::to_string(n));
    // Out-of-range opCls values name no class column; the pass below
    // rejects them.
    std::array<size_t, numInstClasses> named{};
    for (uint8_t c : cols.opCls)
        if (c < numInstClasses)
            named[c]++;
    for (unsigned c = 0; c < numInstClasses; c++) {
        const ClassColumns &cc = cols.ops[c];
        if (cc.a.size() != named[c] || cc.b.size() != named[c] ||
            cc.r.size() != named[c])
            throw SpillError("trace: operand columns of class " +
                             std::to_string(c) + " differ in length "
                             "from opCls");
    }

    std::vector<uint32_t> payload(n);
    std::array<uint32_t, numInstClasses> rank{};
    size_t ops = 0, addrs = 0;
    for (size_t i = 0; i < n; i++) {
        const uint8_t c = cols.cls[i];
        if (c >= numInstClasses)
            throw SpillError("cls: value " + std::to_string(c) +
                             " is not an InstClass");
        const auto cls = static_cast<InstClass>(c);
        if (hasOperands(cls)) {
            if (ops == nOps)
                throw SpillError("opCls: column exhausted early");
            if (cols.opCls[ops] != c)
                throw SpillError("opCls: disagrees with cls column at "
                                 "operand record " +
                                 std::to_string(ops));
            payload[i] = rank[c]++;
            ops++;
        } else if (hasAddress(cls)) {
            if (addrs == nAddrs)
                throw SpillError("addr: column exhausted early");
            payload[i] = static_cast<uint32_t>(addrs++);
        }
    }
    if (ops != nOps)
        throw SpillError("trace: class column implies " +
                         std::to_string(ops) + " operand records, " +
                         "operand columns hold " + std::to_string(nOps));
    if (addrs != nAddrs)
        throw SpillError("trace: class column implies " +
                         std::to_string(addrs) + " address records, " +
                         "addr column holds " + std::to_string(nAddrs));

    TraceStore s;
    s.cls_ = std::move(cols.cls);
    s.pc_ = std::move(cols.pc);
    s.payload_ = std::move(payload);
    s.ops_ = std::move(cols.ops);
    s.addr_ = std::move(cols.addr);
    return s;
}

} // namespace memo
