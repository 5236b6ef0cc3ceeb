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
    std::array<size_t, numInstClasses> records{};
    for (uint8_t c : cols.cls) {
        if (c >= numInstClasses)
            throw SpillError("cls: value " + std::to_string(c) +
                             " is not an InstClass");
        records[c]++;
    }
    for (unsigned c = 0; c < numInstClasses; c++) {
        const ClassColumns &cc = cols.ops[c];
        const size_t n =
            hasOperands(static_cast<InstClass>(c)) ? records[c] : 0;
        if (cc.a.size() != n || cc.b.size() != n || cc.r.size() != n)
            throw SpillError(
                "trace: class column implies " + std::to_string(n) +
                " operand records of class " + std::to_string(c) +
                ", its columns hold " + std::to_string(cc.a.size()) +
                ", " + std::to_string(cc.b.size()) + " and " +
                std::to_string(cc.r.size()) + " words");
    }
    const size_t addrs =
        records[static_cast<unsigned>(InstClass::Load)] +
        records[static_cast<unsigned>(InstClass::Store)];
    if (cols.addr.size() != addrs)
        throw SpillError("trace: class column implies " +
                         std::to_string(addrs) + " address records, " +
                         "addr column holds " +
                         std::to_string(cols.addr.size()));

    TraceStore s;
    s.cls_ = std::move(cols.cls);
    s.ops_ = std::move(cols.ops);
    s.addr_ = std::move(cols.addr);
    return s;
}

} // namespace memo
