#include "tiered_table.hh"

namespace memo
{

TieredMemoTable::TieredMemoTable(Operation op, const MemoConfig &l1_cfg,
                                 const MemoConfig &l2_cfg)
    : l1(op, l1_cfg), l2(op, l2_cfg)
{
}

std::optional<TieredHit>
TieredMemoTable::lookup(uint64_t a_bits, uint64_t b_bits)
{
    if (auto v = l1.lookup(a_bits, b_bits))
        return TieredHit{*v, 1};
    if (auto v = l2.lookup(a_bits, b_bits)) {
        // Promote: the hot pair moves to the single-cycle level.
        l1.update(a_bits, b_bits, *v);
        promoted++;
        return TieredHit{*v, 2};
    }
    return std::nullopt;
}

void
TieredMemoTable::update(uint64_t a_bits, uint64_t b_bits,
                        uint64_t result_bits)
{
    l1.update(a_bits, b_bits, result_bits);
    l2.update(a_bits, b_bits, result_bits);
}

void
TieredMemoTable::reset()
{
    l1.reset();
    l2.reset();
    promoted = 0;
}

} // namespace memo
