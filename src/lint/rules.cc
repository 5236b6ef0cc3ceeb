#include "rules.hh"

namespace memo::lint
{

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> rules = {
        {"memo-DET-001", "DET", Severity::Error,
         "iteration over an unordered container; element order is "
         "unspecified and varies across standard libraries",
         "iterate a sorted view (std::map, or sort the keys first), "
         "or prove the fold commutative over exact values and "
         "suppress with NOLINT"},
        {"memo-DET-002", "DET", Severity::Error,
         "ambient wall-clock or randomness source (rand, "
         "std::random_device, time, *_clock); results would differ "
         "between runs",
         "thread a fixed seed through the call chain (see "
         "src/check/fuzz.cc for the seeded-PRNG idiom) or take the "
         "timestamp outside the measured path"},
        {"memo-DET-003", "DET", Severity::Error,
         "pointer-valued container key; iteration order and hashing "
         "follow the allocator, not the data",
         "key on a stable value (index, id, operand bits) instead of "
         "an address"},
        {"memo-FP-002", "FP", Severity::Warning,
         "order-sensitive floating-point accumulation: the fold order "
         "follows an unordered container or worker scheduling",
         "accumulate per work item into an index-aligned vector and "
         "reduce in fixed order (the exec::sweep pattern), or sort "
         "before folding"},
        {"memo-CONC-001", "CONC", Severity::Error,
         "raw threading primitive (std::thread / std::async / "
         "detach) outside src/exec; work must go through the shared "
         "ThreadPool to keep sweeps deterministic and bounded",
         "use exec::parallelFor or exec::sweep; if a new primitive "
         "is genuinely needed it belongs in src/exec"},
        {"memo-CONC-002", "CONC", Severity::Error,
         "mutable namespace-scope variable; shared state written "
         "from parallelFor workers races unless atomic",
         "move the state into obs::StatsRegistry (sharded, "
         "jobs-invariant), make it std::atomic, or make it const"},
        {"memo-CONC-003", "CONC", Severity::Error,
         "mutable function-local static; initialization is "
         "thread-safe but subsequent mutation from parallelFor "
         "workers is not",
         "pass state explicitly, or guard the object internally and "
         "suppress with a justification (the sanctioned singletons "
         "in src/exec and src/obs do this)"},
        {"memo-CONC-004", "CONC", Severity::Error,
         "class declares a mutex member but a sibling mutable field "
         "carries no capability annotation; Clang's thread-safety "
         "analysis checks only annotated fields",
         "annotate the field MEMO_GUARDED_BY(<mutex>) "
         "(core/annotations.hh), or MEMO_UNGUARDED with a comment "
         "stating why the field needs no lock"},
        {"memo-API-001", "API", Severity::Warning,
         "MemoStats polled via Table::stats() from the obs/exec "
         "layer; observability must subscribe through TableHooks so "
         "sampling and tracing stay consistent",
         "attach a TableHooks observer (see obs::EventTracer) "
         "instead of polling counters"},
        {"memo-API-002", "API", Severity::Warning,
         "command-line tool not documented in tools/README.md",
         "add a section for the binary to tools/README.md (one "
         "binary per job, each with examples)"},
    };
    return rules;
}

const RuleInfo *
findRule(std::string_view id)
{
    for (const RuleInfo &r : ruleCatalog())
        if (id == r.id)
            return &r;
    return nullptr;
}

const char *
severityName(Severity s)
{
    return s == Severity::Error ? "error" : "warning";
}

} // namespace memo::lint
