#include "trace_store.hh"

#include <array>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/memo_table.hh"
#include "trace/chunk_codec.hh"

namespace memo
{

namespace
{

std::atomic<uint64_t> key_builds{0};

/** The keys_ slot of an operand class, or throws. */
size_t
keySlot(InstClass cls)
{
    switch (cls) {
      case InstClass::IntMul:
        return 0;
      case InstClass::FpMul:
        return 1;
      case InstClass::FpDiv:
        return 2;
      default:
        throw std::invalid_argument(
            "TraceStore::accessKeys: class " +
            std::to_string(static_cast<unsigned>(cls)) +
            " has no key stream");
    }
}

} // anonymous namespace

const AccessKeys &
TraceStore::accessKeys(InstClass cls) const
{
    return keys_[keySlot(cls)].get([&] {
        key_builds.fetch_add(1, std::memory_order_relaxed);
        const ClassColumns &c = classColumns(cls);
        return MemoTable::keyAccesses(*memoOperation(cls), c.a.data(),
                                      c.b.data(), c.a.size());
    });
}

bool
TraceStore::hasAccessKeys(InstClass cls) const
{
    return keys_[keySlot(cls)].built();
}

uint64_t
TraceStore::accessKeyBuilds()
{
    return key_builds.load(std::memory_order_relaxed);
}

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
    std::array<size_t, numInstClasses> named{};
    for (uint8_t c : cols.opCls) {
        if (c >= numInstClasses ||
            !hasOperands(static_cast<InstClass>(c)))
            throw SpillError("opCls: value " + std::to_string(c) +
                             " is not a class with operands");
        named[c]++;
    }
    for (unsigned c = 0; c < numInstClasses; c++) {
        const ClassColumns &cc = cols.ops[c];
        if (cc.a.size() != named[c] || cc.b.size() != named[c] ||
            cc.r.size() != named[c])
            throw SpillError("trace: operand columns of class " +
                             std::to_string(c) + " differ in length "
                             "from opCls");
    }

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
            ops++;
        } else if (hasAddress(cls)) {
            if (addrs == nAddrs)
                throw SpillError("addr: column exhausted early");
            addrs++;
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
    s.ops_ = std::move(cols.ops);
    s.addr_ = std::move(cols.addr);
    return s;
}

} // namespace memo
