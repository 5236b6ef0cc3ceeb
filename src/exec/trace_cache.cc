#include "trace_cache.hh"

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <utility>

#include "core/cli_args.hh"
#include "obs/stats.hh"
#include "prof/prof.hh"

namespace memo::exec
{

namespace
{

size_t
defaultBudget()
{
    // MB as u32 keeps the byte count within 64 bits, as for
    // --trace-cache-budget.
    if (std::optional<uint32_t> mb =
            cli::envCount<uint32_t>("MEMO_TRACE_CACHE_MB"))
        return size_t{*mb} * 1024 * 1024;
    return size_t{768} * 1024 * 1024;
}

} // anonymous namespace

TraceCache::TraceCache(size_t budget_bytes)
    : budget(budget_bytes ? budget_bytes : defaultBudget())
{
    if (const char *env = std::getenv("MEMO_TRACE_SPILL_DIR")) {
        if (*env)
            spill_ = std::make_shared<SpillStore>(env);
    }
}

TraceCache &
TraceCache::instance()
{
    // Internally synchronized singleton: every lookup and insert is
    // taken under the cache's own mutex.
    static TraceCache cache; // NOLINT(memo-CONC-003)
    return cache;
}

void
TraceCache::setSpillDir(const std::string &dir)
{
    std::shared_ptr<SpillStore> store;
    if (!dir.empty())
        store = std::make_shared<SpillStore>(dir);
    MutexLock lk(m);
    spill_ = std::move(store);
}

std::string
TraceCache::spillDir() const
{
    MutexLock lk(m);
    return spill_ ? spill_->root() : std::string();
}

void
TraceCache::setBudgetBytes(size_t budget_bytes)
{
    MutexLock lk(m);
    budget = budget_bytes ? budget_bytes : defaultBudget();
}

std::shared_ptr<const Trace>
TraceCache::get(const TraceKey &key, const Generator &gen)
{
    std::shared_ptr<Slot> slot;
    std::shared_ptr<SpillStore> spill;
    {
        MutexLock lk(m);
        auto it = map.find(key);
        if (it != map.end()) {
            lru.splice(lru.begin(), lru, it->second);
        } else {
            lru.emplace_front(key, std::make_shared<Slot>());
            map[key] = lru.begin();
        }
        slot = lru.front().second;
        spill = spill_;
    }

    // Generation runs outside the map lock: distinct keys generate
    // concurrently, while a second requester of the same key blocks
    // here until the first finishes.
    Victims victims;
    std::shared_ptr<const Trace> result;
    {
        MutexLock sl(slot->m);
        if (!slot->trace) {
            // Miss: the disk tier first (a spilled trace decodes
            // bit-exactly and skips the generator), then generation.
            // A key never spilled is a clean miss; any disk defect,
            // a corrupt manifest included, is survivable — count it
            // and fall back.
            if (spill) {
                prof::ProfSpan span("cache.admit");
                try {
                    std::optional<Trace> t =
                        spill->readIfPresent(spillKeyOf(key));
                    if (t) {
                        slot->trace =
                            std::make_shared<const Trace>(std::move(*t));
                        admits_.fetch_add(1,
                                          std::memory_order_relaxed);
                    }
                } catch (const SpillError &) {
                    slot->trace.reset();
                    spillErrors_.fetch_add(1,
                                           std::memory_order_relaxed);
                }
            }
            if (!slot->trace) {
                prof::ProfSpan span("cache.generate");
                slot->trace = std::make_shared<const Trace>(gen());
                generated_.fetch_add(1, std::memory_order_relaxed);
            }
            // The 0 -> n transition of slot->bytes happens under the
            // cache mutex, together with its totalBytes contribution:
            // an eviction walk (which runs with `m` held) can then
            // never observe a slot size whose bytes were not yet
            // accounted and drive totalBytes below zero.
            size_t nbytes = slot->trace->memoryBytes();
            MutexLock lk(m);
            slot->bytes.store(nbytes, std::memory_order_relaxed);
            totalBytes += nbytes;
            victims = evictOverBudget(slot);
        } else {
            hits_.fetch_add(1, std::memory_order_relaxed);
        }
        result = slot->trace;
    }

    // Spill writes happen outside every cache lock: lookups of other
    // keys (and of this one) proceed while victims are encoded.
    spillVictims(spill, victims);
    return result;
}

TraceCache::Victims
TraceCache::evictOverBudget(const std::shared_ptr<Slot> &keep)
{
    // Called with `m` held. Walk from the cold end; skip the entry
    // just inserted and any still-generating (zero-byte) slots.
    Victims victims;
    auto it = lru.end();
    while (totalBytes > budget && it != lru.begin()) {
        --it;
        size_t vbytes =
            it->second->bytes.load(std::memory_order_relaxed);
        if (it->second == keep || vbytes == 0)
            continue;
        totalBytes -= vbytes;
        map.erase(it->first);
        victims.emplace_back(std::move(it->first),
                             std::move(it->second));
        it = lru.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return victims;
}

void
TraceCache::spillVictims(const std::shared_ptr<SpillStore> &spill,
                         const Victims &victims)
{
    if (!spill || victims.empty())
        return;
    prof::ProfSpan span("cache.spill");
    for (const auto &[key, slot] : victims) {
        std::string skey = spillKeyOf(key);
        // Victims are unreachable from the map, but a requester that
        // grabbed the slot before eviction may still hold its mutex;
        // copy the trace pointer under it (uncontended in practice —
        // a victim's generation finished before it became evictable).
        std::shared_ptr<const Trace> trace;
        {
            MutexLock sl(slot->m);
            trace = slot->trace;
        }
        try {
            if (spill->contains(skey))
                continue; // already durable from an earlier spill
            SpillStore::WriteStats ws = spill->write(skey, *trace);
            spills_.fetch_add(1, std::memory_order_relaxed);
            spilledBytes_.fetch_add(ws.bytesWritten,
                                    std::memory_order_relaxed);
            sharedBytes_.fetch_add(ws.bytesShared,
                                   std::memory_order_relaxed);
        } catch (const SpillError &) {
            // Disk full / permissions / races: the cache must never
            // fail a lookup over its own maintenance.
            spillErrors_.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

size_t
TraceCache::entries() const
{
    MutexLock lk(m);
    return map.size();
}

size_t
TraceCache::residentBytes() const
{
    MutexLock lk(m);
    return totalBytes;
}

void
TraceCache::publishStats(obs::StatsRegistry &reg) const
{
    reg.gaugeMax("exec.traceCache.hits", hits());
    reg.gaugeMax("exec.traceCache.misses", misses());
    reg.gaugeMax("exec.traceCache.evictions", evictions());
    reg.gaugeMax("exec.traceCache.entries", entries());
    reg.gaugeMax("exec.traceCache.residentBytes", residentBytes());
    reg.gaugeMax("exec.traceCache.spills", spills());
    reg.gaugeMax("exec.traceCache.admits", admits());
    reg.gaugeMax("exec.traceCache.spilledBytes", spilledBytes());
    reg.gaugeMax("exec.traceCache.sharedBytes", sharedBytes());
    reg.gaugeMax("exec.traceCache.spillErrors", spillErrors());
}

void
TraceCache::clear()
{
    MutexLock lk(m);
    map.clear();
    lru.clear();
    totalBytes = 0;
}

} // namespace memo::exec
