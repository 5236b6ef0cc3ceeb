#include "stats.hh"

#include <atomic>
#include <cassert>
#include <sstream>

namespace memo::obs
{

const std::vector<uint64_t> &
Histogram::defaultEdges()
{
    static const std::vector<uint64_t> edges = {1, 2, 4, 8, 16, 32, 64,
                                                128};
    return edges;
}

Histogram::Histogram(std::vector<uint64_t> upper_edges)
    : edges_(std::move(upper_edges)), counts_(edges_.size() + 1, 0)
{
    assert(!edges_.empty());
    for (size_t i = 1; i < edges_.size(); i++)
        assert(edges_[i - 1] < edges_[i]);
}

void
Histogram::record(uint64_t value)
{
    record(value, 1);
}

void
Histogram::record(uint64_t value, uint64_t n)
{
    size_t b = 0;
    while (b < edges_.size() && value > edges_[b])
        b++;
    counts_[b] += n;
    total_ += n;
    sum_ += value * n;
}

void
Histogram::merge(const Histogram &other)
{
    assert(edges_ == other.edges_);
    for (size_t i = 0; i < counts_.size(); i++)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ += other.sum_;
}

std::string
Histogram::serialize() const
{
    std::ostringstream os;
    os << "|";
    for (size_t i = 0; i < counts_.size(); i++) {
        if (i < edges_.size())
            os << "<=" << edges_[i];
        else
            os << "inf";
        os << ":" << counts_[i] << "|";
    }
    os << " n=" << total_ << " sum=" << sum_;
    return os.str();
}

void
TimeSeries::add(size_t index, uint64_t delta)
{
    if (index >= values_.size())
        values_.resize(index + 1, 0);
    values_[index] += delta;
}

void
TimeSeries::merge(const TimeSeries &other)
{
    if (other.values_.size() > values_.size())
        values_.resize(other.values_.size(), 0);
    for (size_t i = 0; i < other.values_.size(); i++)
        values_[i] += other.values_[i];
}

uint64_t
TimeSeries::total() const
{
    uint64_t sum = 0;
    for (uint64_t v : values_)
        sum += v;
    return sum;
}

std::string
TimeSeries::serialize() const
{
    std::ostringstream os;
    os << "|";
    for (uint64_t v : values_)
        os << v << "|";
    os << " n=" << values_.size() << " sum=" << total();
    return os.str();
}

std::string
Snapshot::serialize() const
{
    std::ostringstream os;
    // Snapshot's members are std::map (sorted by name); memo-lint
    // confuses them with the Shard members of the same name.
    for (const auto &[name, v] : counters) // NOLINT(memo-DET-001)
        os << "counter " << name << " " << v << "\n";
    for (const auto &[name, v] : gauges) // NOLINT(memo-DET-001)
        os << "gauge " << name << " " << v << "\n";
    for (const auto &[name, h] : histograms) // NOLINT(memo-DET-001)
        os << "hist " << name << " " << h.serialize() << "\n";
    for (const auto &[name, s] : series) // NOLINT(memo-DET-001)
        os << "series " << name << " " << s.serialize() << "\n";
    return os.str();
}

namespace
{

/** Process-unique registry ids, so the thread-local shard cache can
 *  never confuse a registry with a previously destroyed one that was
 *  allocated at the same address. */
std::atomic<uint64_t> next_registry_id{1};

/** This thread's shard pointer per registry id. */
thread_local std::unordered_map<uint64_t, void *> tls_shards;

} // anonymous namespace

StatsRegistry::StatsRegistry()
    : id_(next_registry_id.fetch_add(1, std::memory_order_relaxed))
{
}

StatsRegistry::~StatsRegistry() = default;

StatsRegistry &
StatsRegistry::global()
{
    // Internally synchronized singleton: shard creation takes m_ and
    // all hot-path writes go through thread-local shards.
    static StatsRegistry registry; // NOLINT(memo-CONC-003)
    return registry;
}

StatsRegistry::Shard &
StatsRegistry::localShard()
{
    auto it = tls_shards.find(id_);
    if (it != tls_shards.end())
        return *static_cast<Shard *>(it->second);
    MutexLock lock(m_);
    shards_.push_back(std::make_unique<Shard>());
    Shard *shard = shards_.back().get();
    tls_shards.emplace(id_, shard);
    return *shard;
}

void
StatsRegistry::add(std::string_view name, uint64_t delta)
{
    localShard().counters[std::string(name)] += delta;
}

void
StatsRegistry::gaugeMax(std::string_view name, uint64_t value)
{
    uint64_t &g = localShard().gauges[std::string(name)];
    if (value > g)
        g = value;
}

void
StatsRegistry::recordHistogram(std::string_view name, uint64_t value)
{
    auto &hists = localShard().histograms;
    auto it = hists.find(std::string(name));
    if (it == hists.end())
        it = hists.emplace(std::string(name), Histogram()).first;
    it->second.record(value);
}

void
StatsRegistry::mergeHistogram(std::string_view name, const Histogram &h)
{
    auto &hists = localShard().histograms;
    auto it = hists.find(std::string(name));
    if (it == hists.end())
        hists.emplace(std::string(name), h);
    else
        it->second.merge(h);
}

void
StatsRegistry::mergeSeries(std::string_view name, const TimeSeries &s)
{
    auto &all = localShard().series;
    auto it = all.find(std::string(name));
    if (it == all.end())
        all.emplace(std::string(name), s);
    else
        it->second.merge(s);
}

Snapshot
StatsRegistry::snapshot() const
{
    Snapshot snap;
    MutexLock lock(m_);
    // Shard iteration order is unspecified, but every fold here is
    // commutative over exact values (integer +=, max, histogram
    // bucket-count merge) into sorted std::map keys, so the snapshot
    // is order-independent.
    for (const auto &shard : shards_) {
        for (const auto &[name, v] : shard->counters) // NOLINT(memo-DET-001)
            snap.counters[name] += v;
        for (const auto &[name, v] : shard->gauges) { // NOLINT(memo-DET-001)
            uint64_t &g = snap.gauges[name];
            if (v > g)
                g = v;
        }
        for (const auto &[name, h] : shard->histograms) { // NOLINT(memo-DET-001)
            auto it = snap.histograms.find(name);
            if (it == snap.histograms.end())
                snap.histograms.emplace(name, h);
            else
                it->second.merge(h);
        }
        for (const auto &[name, s] : shard->series) { // NOLINT(memo-DET-001)
            auto it = snap.series.find(name);
            if (it == snap.series.end())
                snap.series.emplace(name, s);
            else
                it->second.merge(s);
        }
    }
    return snap;
}

void
StatsRegistry::reset()
{
    MutexLock lock(m_);
    for (auto &shard : shards_) {
        shard->counters.clear();
        shard->gauges.clear();
        shard->histograms.clear();
        shard->series.clear();
    }
}

} // namespace memo::obs
