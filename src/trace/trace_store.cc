#include "trace_store.hh"

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
            payload[i] = static_cast<uint32_t>(ops++);
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
    s.opCls_ = std::move(cols.opCls);
    s.opA_ = std::move(cols.opA);
    s.opB_ = std::move(cols.opB);
    s.opRes_ = std::move(cols.opRes);
    s.addr_ = std::move(cols.addr);
    return s;
}

std::unique_ptr<TraceStore::Partition>
TraceStore::buildPartition() const
{
    // Count per class, then fill exactly sized columns: no vector
    // growth, no slack capacity.
    const size_t n = opA_.size();
    std::array<size_t, numInstClasses> count{};
    for (size_t i = 0; i < n; i++)
        count[opCls_[i]]++;

    auto part = std::make_unique<Partition>();
    std::array<uint64_t *, numInstClasses> a{}, b{}, r{};
    for (unsigned c = 0; c < numInstClasses; c++) {
        ClassColumns &cc = part->cols[c];
        cc.a.resize(count[c]);
        cc.b.resize(count[c]);
        cc.r.resize(count[c]);
        a[c] = cc.a.data();
        b[c] = cc.b.data();
        r[c] = cc.r.data();
    }
    for (size_t i = 0; i < n; i++) {
        const uint8_t c = opCls_[i];
        *a[c]++ = opA_[i];
        *b[c]++ = opB_[i];
        *r[c]++ = opRes_[i];
    }
    part->builtFor = n;
    return part;
}

const TraceStore::ClassColumns &
TraceStore::classColumns(InstClass cls) const
{
    // partMu is process-wide, so it is held only for a pointer check
    // and an install, never for a build: a build takes milliseconds
    // per million operand records, and workers readmitting traces
    // from the spill tier each need one. The acquire that finds or
    // installs the partition also publishes its columns to this
    // caller; the columns are never written once installed.
    const size_t n = opA_.size();
    const auto idx = static_cast<uint8_t>(cls);
    {
        MutexLock lock(partMu);
        if (part_ && part_->builtFor == n)
            return part_->cols[idx];
    }
    std::unique_ptr<Partition> built = buildPartition();
    MutexLock lock(partMu);
    // A racing caller on this store may have installed first; keep
    // its partition, so references it handed out stay valid.
    if (!part_ || part_->builtFor != n)
        part_ = std::move(built);
    return part_->cols[idx];
}

} // namespace memo
