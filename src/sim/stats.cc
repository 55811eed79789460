#include "sim/stats.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace gasnub::stats {

namespace {

/** Common {"name":...,"type":...,"desc":... prefix of a stat. */
void
jsonHead(std::ostream &os, const StatBase &s, const char *type)
{
    os << "{\"name\":" << json::quoted(s.name()) << ",\"type\":\""
       << type << "\",\"desc\":" << json::quoted(s.desc());
}

/**
 * Downcast @p other for a merge; fatal when the concrete types differ
 * (merging is only defined between stats of identical declaration).
 */
template <typename T>
const T &
mergePeer(const StatBase &self, const StatBase &other)
{
    const T *peer = dynamic_cast<const T *>(&other);
    GASNUB_ASSERT(peer != nullptr, "stat merge type mismatch at '",
                  self.name(), "' / '", other.name(), "'");
    return *peer;
}

} // namespace

StatBase::StatBase(Group *group, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    if (group)
        group->add(this);
}

void
Scalar::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " "
       << std::setw(16) << value() << " # " << desc() << "\n";
}

void
Scalar::printJson(std::ostream &os) const
{
    jsonHead(os, *this, "scalar");
    os << ",\"value\":" << json::number(value()) << "}";
}

void
Scalar::mergeFrom(const StatBase &other)
{
    _value += mergePeer<Scalar>(*this, other)._value;
}

double
Histogram::interpolate(std::span<const std::uint64_t> buckets,
                       std::uint64_t zeros, std::uint64_t count,
                       double p)
{
    GASNUB_ASSERT(p >= 0 && p <= 1, "percentile wants p in [0, 1]");
    if (count == 0)
        return 0.0;
    // Rank of the requested sample, 1-based; p=0 is the first sample,
    // p=1 the last.
    const double rank = p * static_cast<double>(count - 1) + 1.0;
    double seen = static_cast<double>(zeros);
    if (rank <= seen)
        return 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        const double in_bucket = static_cast<double>(buckets[i]);
        if (rank <= seen + in_bucket) {
            // Linear interpolation across [2^i, 2^(i+1)) by the
            // rank's position within the bucket.
            const double lo =
                static_cast<double>(std::uint64_t(1) << i);
            return lo + (rank - seen) / in_bucket * lo;
        }
        seen += in_bucket;
    }
    return 0.0; // unreachable when count == zeros + sum(buckets)
}

double
Histogram::percentileOf(std::span<const std::uint64_t> buckets,
                        std::uint64_t zeros, std::uint64_t count,
                        std::uint64_t min, std::uint64_t max, double p)
{
    if (count == 0)
        return 0.0;
    // The endpoints are exact samples, not interpolation targets:
    // p=0 is the smallest sample seen, p=1 the largest.  Interior
    // ranks interpolate within their bucket, which would otherwise
    // push p=0 above the min whenever the min shares its bucket with
    // no smaller rank.
    if (p == 0.0)
        return zeros ? 0.0 : static_cast<double>(min);
    if (p == 1.0)
        return static_cast<double>(max);
    return std::min(std::max(interpolate(buckets, zeros, count, p),
                             static_cast<double>(min)),
                    static_cast<double>(max));
}

double
Histogram::percentile(double p) const
{
    return percentileOf(_buckets, _zeros, _count, minSeen(), maxSeen(),
                        p);
}

void
Histogram::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " n=" << _count
       << " sum=" << _sum << " min=" << minSeen()
       << " max=" << maxSeen() << " # " << desc() << "\n";
    if (_zeros)
        os << "  " << name() << ".bucket[0] " << _zeros << "\n";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (_buckets[i] == 0)
            continue;
        os << "  " << name() << ".bucket[" << (std::uint64_t(1) << i)
           << "," << (std::uint64_t(1) << (i + 1)) << ") "
           << _buckets[i] << "\n";
    }
}

void
Histogram::printJson(std::ostream &os) const
{
    jsonHead(os, *this, "histogram");
    os << ",\"count\":" << _count << ",\"sum\":" << _sum
       << ",\"min\":" << minSeen() << ",\"max\":" << maxSeen()
       << ",\"zeros\":" << _zeros << ",\"buckets\":[";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (i)
            os << ',';
        os << _buckets[i];
    }
    os << "]}";
}

void
Histogram::reset()
{
    _buckets.clear();
    _zeros = 0;
    _count = 0;
    _sum = 0;
    _minSeen = 0;
    _maxSeen = 0;
}

void
Histogram::mergeFrom(const StatBase &other)
{
    const Histogram &peer = mergePeer<Histogram>(*this, other);
    if (peer._count == 0)
        return;
    if (_count == 0) {
        _minSeen = peer._minSeen;
        _maxSeen = peer._maxSeen;
    } else {
        _minSeen = std::min(_minSeen, peer._minSeen);
        _maxSeen = std::max(_maxSeen, peer._maxSeen);
    }
    if (peer._buckets.size() > _buckets.size())
        _buckets.resize(peer._buckets.size(), 0);
    for (std::size_t i = 0; i < peer._buckets.size(); ++i)
        _buckets[i] += peer._buckets[i];
    _zeros += peer._zeros;
    _count += peer._count;
    _sum += peer._sum;
}

Vector::Vector(Group *group, std::string name, std::string desc,
               std::size_t size)
    : StatBase(group, std::move(name), std::move(desc)),
      _values(size, 0.0), _subnames(size)
{
    GASNUB_ASSERT(size >= 1, "vector stat needs >= 1 element");
}

double
Vector::total() const
{
    double sum = 0;
    for (const double v : _values)
        sum += v;
    return sum;
}

void
Vector::subname(std::size_t i, std::string label)
{
    GASNUB_ASSERT(i < _subnames.size(), "bad vector subname index");
    _subnames[i] = std::move(label);
}

void
Vector::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " "
       << std::setw(16) << total() << " # " << desc() << " (total)\n";
    for (std::size_t i = 0; i < _values.size(); ++i) {
        if (_values[i] == 0)
            continue;
        os << "  " << name() << '[';
        if (_subnames[i].empty())
            os << i;
        else
            os << _subnames[i];
        os << "] " << _values[i] << "\n";
    }
}

void
Vector::printJson(std::ostream &os) const
{
    jsonHead(os, *this, "vector");
    os << ",\"total\":" << json::number(total()) << ",\"values\":[";
    for (std::size_t i = 0; i < _values.size(); ++i) {
        if (i)
            os << ',';
        os << json::number(_values[i]);
    }
    os << "],\"subnames\":[";
    for (std::size_t i = 0; i < _subnames.size(); ++i) {
        if (i)
            os << ',';
        os << json::quoted(_subnames[i]);
    }
    os << "]}";
}

void
Vector::reset()
{
    std::fill(_values.begin(), _values.end(), 0.0);
}

void
Vector::mergeFrom(const StatBase &other)
{
    const Vector &peer = mergePeer<Vector>(*this, other);
    GASNUB_ASSERT(peer._values.size() == _values.size(),
                  "vector merge size mismatch at '", name(), "'");
    for (std::size_t i = 0; i < _values.size(); ++i)
        _values[i] += peer._values[i];
}

Formula::Formula(Group *group, std::string name, std::string desc,
                 Fn fn)
    : StatBase(group, std::move(name), std::move(desc)),
      _fn(std::move(fn))
{
    GASNUB_ASSERT(_fn, "formula needs an evaluation function");
}

void
Formula::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " "
       << std::setw(16) << value() << " # " << desc() << "\n";
}

void
Formula::printJson(std::ostream &os) const
{
    jsonHead(os, *this, "formula");
    os << ",\"value\":" << json::number(value()) << "}";
}

void
Formula::mergeFrom(const StatBase &other)
{
    // Formulas recompute from the stats they reference; nothing to
    // merge, but the peer must at least be a formula too.
    mergePeer<Formula>(*this, other);
}

namespace {

/** Smallest shift with (1 << shift) >= ticks (shift >= 1). */
unsigned
shiftFor(Tick ticks)
{
    unsigned s = 1;
    while ((Tick(1) << s) < ticks && s < 62)
        ++s;
    return s;
}

} // namespace

IntervalBandwidth::IntervalBandwidth(Group *group, std::string name,
                                     std::string desc, Tick bucketTicks,
                                     std::size_t maxBuckets)
    : StatBase(group, std::move(name), std::move(desc)),
      _bucketShift(shiftFor(bucketTicks)),
      _maxBuckets(std::max<std::size_t>(maxBuckets, 1))
{
    GASNUB_ASSERT(bucketTicks >= 1, "bucket width must be >= 1 tick");
}

double
IntervalBandwidth::peakMBs() const
{
    std::uint64_t peak = 0;
    for (const std::uint64_t b : _buckets)
        peak = std::max(peak, b);
    // ticks are picoseconds: bytes / s = bytes * 1e12 / ticks.
    const double seconds =
        static_cast<double>(bucketTicks()) * 1e-12;
    return static_cast<double>(peak) / seconds / 1e6;
}

void
IntervalBandwidth::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " "
       << std::setw(16) << _totalBytes << " # " << desc()
       << " (bytes; " << _buckets.size() << " buckets of "
       << bucketTicks() << " ticks, peak " << peakMBs() << " MB/s)\n";
}

void
IntervalBandwidth::printJson(std::ostream &os) const
{
    jsonHead(os, *this, "intervalBandwidth");
    os << ",\"bucketTicks\":" << bucketTicks()
       << ",\"totalBytes\":" << _totalBytes
       << ",\"clamped\":" << _clamped
       << ",\"peakMBs\":" << json::number(peakMBs()) << ",\"bucketBytes\":[";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (i)
            os << ',';
        os << _buckets[i];
    }
    os << "]}";
}

void
IntervalBandwidth::reset()
{
    _buckets.clear();
    _totalBytes = 0;
    _clamped = 0;
}

void
IntervalBandwidth::mergeFrom(const StatBase &other)
{
    const IntervalBandwidth &peer =
        mergePeer<IntervalBandwidth>(*this, other);
    GASNUB_ASSERT(peer._bucketShift == _bucketShift &&
                      peer._maxBuckets == _maxBuckets,
                  "interval bandwidth merge shape mismatch at '",
                  name(), "'");
    if (peer._buckets.size() > _buckets.size())
        _buckets.resize(peer._buckets.size(), 0);
    for (std::size_t i = 0; i < peer._buckets.size(); ++i)
        _buckets[i] += peer._buckets[i];
    _totalBytes += peer._totalBytes;
    _clamped += peer._clamped;
}

Group::Group(std::string name) : _name(std::move(name)) {}

Group::~Group() = default;

void
Group::add(StatBase *stat)
{
    GASNUB_ASSERT(stat != nullptr, "null stat");
    _stats.push_back(stat);
}

void
Group::remove(StatBase *stat)
{
    _stats.erase(std::remove(_stats.begin(), _stats.end(), stat),
                 _stats.end());
}

void
Group::addChild(Group *child)
{
    GASNUB_ASSERT(child != nullptr && child != this, "bad child group");
    _children.push_back(child);
}

void
Group::removeChild(Group *child)
{
    _children.erase(
        std::remove(_children.begin(), _children.end(), child),
        _children.end());
}

void
Group::dump(std::ostream &os) const
{
    if (!_name.empty() && (!_stats.empty() || !_children.empty()))
        os << "---------- " << _name << " ----------\n";
    for (const StatBase *s : _stats)
        s->print(os);
    for (const Group *g : _children)
        g->dump(os);
}

void
Group::dumpJson(std::ostream &os) const
{
    os << "{\"name\":" << json::quoted(_name) << ",\"stats\":[";
    for (std::size_t i = 0; i < _stats.size(); ++i) {
        if (i)
            os << ',';
        _stats[i]->printJson(os);
    }
    os << "],\"groups\":[";
    for (std::size_t i = 0; i < _children.size(); ++i) {
        if (i)
            os << ',';
        _children[i]->dumpJson(os);
    }
    os << "]}";
}

void
Group::resetAll()
{
    for (StatBase *s : _stats)
        s->reset();
    for (Group *g : _children)
        g->resetAll();
}

void
Group::mergeFrom(const Group &other)
{
    GASNUB_ASSERT(other._stats.size() == _stats.size() &&
                      other._children.size() == _children.size(),
                  "stats group structure mismatch merging '",
                  other._name, "' into '", _name, "'");
    for (std::size_t i = 0; i < _stats.size(); ++i) {
        GASNUB_ASSERT(_stats[i]->name() == other._stats[i]->name(),
                      "stat order mismatch merging group '", _name,
                      "': '", _stats[i]->name(), "' vs '",
                      other._stats[i]->name(), "'");
        _stats[i]->mergeFrom(*other._stats[i]);
    }
    for (std::size_t i = 0; i < _children.size(); ++i)
        _children[i]->mergeFrom(*other._children[i]);
}

const StatBase *
Group::find(const std::string &name) const
{
    for (const StatBase *s : _stats)
        if (s->name() == name)
            return s;
    for (const Group *g : _children)
        if (const StatBase *s = g->find(name))
            return s;
    return nullptr;
}

} // namespace gasnub::stats
