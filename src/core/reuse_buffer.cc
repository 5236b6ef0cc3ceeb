#include "reuse_buffer.hh"

#include <bit>
#include <cassert>

#include "arith/hash.hh"

namespace memo
{

ReuseBuffer::ReuseBuffer(unsigned entries_, unsigned ways_)
    : ways(ways_)
{
    assert(entries_ != 0 && std::has_single_bit(entries_));
    assert(ways_ != 0 && std::has_single_bit(ways_) && ways_ <= entries_);
    indexBits = log2Exact(entries_ / ways_);
    entries.resize(entries_);
}

void
ReuseBuffer::reset()
{
    for (auto &e : entries)
        e.valid = false;
    stats_.reset();
    tick = 0;
}

ReuseBuffer::Entry *
ReuseBuffer::find(uint64_t pc, uint64_t a_bits, uint64_t b_bits)
{
    uint64_t mask = indexBits >= 64 ? ~uint64_t{0}
                                    : (uint64_t{1} << indexBits) - 1;
    uint64_t index = pc & mask;
    Entry *set = &entries[index * ways];
    for (unsigned w = 0; w < ways; w++) {
        Entry &e = set[w];
        if (e.valid && e.pc == pc && e.a == a_bits && e.b == b_bits)
            return &e;
    }
    return nullptr;
}

std::optional<uint64_t>
ReuseBuffer::lookup(uint64_t pc, uint64_t a_bits, uint64_t b_bits)
{
    stats_.lookups++;
    if (Entry *e = find(pc, a_bits, b_bits)) {
        e->tick = ++tick;
        stats_.hits++;
        return e->value;
    }
    stats_.misses++;
    return std::nullopt;
}

void
ReuseBuffer::update(uint64_t pc, uint64_t a_bits, uint64_t b_bits,
                    uint64_t result_bits)
{
    if (Entry *e = find(pc, a_bits, b_bits)) {
        e->value = result_bits;
        e->tick = ++tick;
        return;
    }
    uint64_t mask = indexBits >= 64 ? ~uint64_t{0}
                                    : (uint64_t{1} << indexBits) - 1;
    uint64_t index = pc & mask;
    Entry *set = &entries[index * ways];
    Entry *victim = &set[0];
    for (unsigned w = 0; w < ways; w++) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].tick < victim->tick)
            victim = &set[w];
    }
    if (victim->valid)
        stats_.evictions++;
    *victim = Entry{true, pc, a_bits, b_bits, result_bits, ++tick};
    stats_.insertions++;
}

} // namespace memo
