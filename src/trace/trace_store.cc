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
    for (const auto *col : {&cols.opA, &cols.opB, &cols.opRes})
        if (col->size() != nOps)
            throw SpillError("trace: operand columns differ in length "
                             "from opCls");

    // Size each class column from opCls, so a readmitted trace holds
    // no slack capacity. Out-of-range values are left to the pass
    // below, which rejects them.
    std::array<size_t, numInstClasses> count{};
    for (uint8_t c : cols.opCls)
        if (c < numInstClasses)
            count[c]++;
    TraceStore s;
    for (unsigned c = 0; c < numInstClasses; c++) {
        s.ops_[c].a.reserve(count[c]);
        s.ops_[c].b.reserve(count[c]);
        s.ops_[c].r.reserve(count[c]);
    }

    std::vector<uint32_t> payload(n);
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
            ClassColumns &cc = s.ops_[c];
            payload[i] = static_cast<uint32_t>(cc.a.size());
            cc.a.push_back(cols.opA[ops]);
            cc.b.push_back(cols.opB[ops]);
            cc.r.push_back(cols.opRes[ops]);
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

    s.cls_ = std::move(cols.cls);
    s.pc_ = std::move(cols.pc);
    s.payload_ = std::move(payload);
    s.addr_ = std::move(cols.addr);
    return s;
}

} // namespace memo
