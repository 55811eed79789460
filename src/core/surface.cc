#include "core/surface.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "sim/logging.hh"
#include "sim/units.hh"

namespace gasnub::core {

namespace {

/** Index of the grid cell containing @p v, clamped to the interior:
 *  the last grid point not above @p v, 0 at or below the first. */
std::size_t
cellBelow(const std::vector<std::uint64_t> &grid, double v)
{
    if (v <= static_cast<double>(grid.front()))
        return 0;
    const auto above = std::upper_bound(
        grid.begin(), grid.end(), v, [](double x, std::uint64_t g) {
            return x < static_cast<double>(g);
        });
    const auto i = static_cast<std::size_t>(above - grid.begin());
    return std::min(i - 1, grid.size() - 2);
}

/** Interpolation weight of @p v between the axis points i and i+1,
 *  given the axis in log2 space. */
double
logWeight(const std::vector<double> &log2_grid, std::size_t i,
          double v)
{
    const double lo = log2_grid[i];
    const double hi = log2_grid[i + 1];
    const double x = std::log2(std::max(v, 1.0));
    if (x <= lo)
        return 0.0;
    if (x >= hi)
        return 1.0;
    return (x - lo) / (hi - lo);
}

std::vector<double>
log2Axis(const std::vector<std::uint64_t> &grid)
{
    std::vector<double> out;
    out.reserve(grid.size());
    for (const std::uint64_t g : grid)
        out.push_back(std::log2(static_cast<double>(g)));
    return out;
}

} // namespace

Surface::Surface(std::string name,
                 std::vector<std::uint64_t> working_sets,
                 std::vector<std::uint64_t> strides)
    : _name(std::move(name)),
      _workingSets(std::move(working_sets)),
      _strides(std::move(strides)),
      _log2WorkingSets(log2Axis(_workingSets)),
      _log2Strides(log2Axis(_strides)),
      _mbs(_workingSets.size() * _strides.size(), -1.0)
{
    GASNUB_ASSERT(!_workingSets.empty() && !_strides.empty(),
                  "surface grid must be nonempty");
    GASNUB_ASSERT(std::is_sorted(_workingSets.begin(),
                                 _workingSets.end()),
                  "working sets must ascend");
    GASNUB_ASSERT(std::is_sorted(_strides.begin(), _strides.end()),
                  "strides must ascend");
}

std::size_t
Surface::indexOf(const std::vector<std::uint64_t> &grid,
                 std::uint64_t value, const char *what) const
{
    auto it = std::lower_bound(grid.begin(), grid.end(), value);
    if (it == grid.end() || *it != value)
        GASNUB_FATAL(_name, ": ", what, " ", value,
                     " is not on the surface grid");
    return static_cast<std::size_t>(it - grid.begin());
}

void
Surface::set(std::uint64_t ws_bytes, std::uint64_t stride, double mbs)
{
    GASNUB_ASSERT(mbs >= 0, "negative bandwidth");
    const std::size_t r = indexOf(_workingSets, ws_bytes,
                                  "working set");
    const std::size_t c = indexOf(_strides, stride, "stride");
    _mbs[r * _strides.size() + c] = mbs;
}

double
Surface::at(std::uint64_t ws_bytes, std::uint64_t stride) const
{
    const std::size_t r = indexOf(_workingSets, ws_bytes,
                                  "working set");
    const std::size_t c = indexOf(_strides, stride, "stride");
    const double v = _mbs[r * _strides.size() + c];
    GASNUB_ASSERT(v >= 0, _name, ": point (", ws_bytes, ",", stride,
                  ") not measured yet");
    return v;
}

bool
Surface::complete() const
{
    return std::all_of(_mbs.begin(), _mbs.end(),
                       [](double v) { return v >= 0; });
}

GridCell
Surface::locate(double ws_bytes, double stride) const
{
    GridCell cell;
    if (_workingSets.size() > 1) {
        cell.r = cellBelow(_workingSets, ws_bytes);
        cell.wr = logWeight(_log2WorkingSets, cell.r, ws_bytes);
    }
    if (_strides.size() > 1) {
        cell.c = cellBelow(_strides, stride);
        cell.wc = logWeight(_log2Strides, cell.c, stride);
    }
    return cell;
}

double
Surface::interpolateAt(const GridCell &cell) const
{
    const std::size_t nr = _workingSets.size();
    const std::size_t nc = _strides.size();
    auto at_rc = [&](std::size_t rr, std::size_t cc) {
        rr = std::min(rr, nr - 1);
        cc = std::min(cc, nc - 1);
        return _mbs[rr * nc + cc];
    };
    const double wr = cell.wr;
    const double wc = cell.wc;
    const double v00 = at_rc(cell.r, cell.c);
    const double v01 = at_rc(cell.r, cell.c + 1);
    const double v10 = at_rc(cell.r + 1, cell.c);
    const double v11 = at_rc(cell.r + 1, cell.c + 1);
    return (1 - wr) * ((1 - wc) * v00 + wc * v01) +
           wr * ((1 - wc) * v10 + wc * v11);
}

double
Surface::interpolate(double ws_bytes, double stride) const
{
    GASNUB_ASSERT(complete(), _name, ": surface incomplete");
    return interpolateAt(locate(ws_bytes, stride));
}

std::vector<SurfacePoint>
Surface::points() const
{
    std::vector<SurfacePoint> out;
    out.reserve(_mbs.size());
    for (std::size_t r = 0; r < _workingSets.size(); ++r)
        for (std::size_t c = 0; c < _strides.size(); ++c)
            out.push_back({_workingSets[r], _strides[c],
                           _mbs[r * _strides.size() + c]});
    return out;
}

void
Surface::print(std::ostream &os) const
{
    os << "# " << _name
       << " — bandwidth (MByte/s), rows: working set, cols: stride\n";
    os << std::setw(10) << "ws\\stride";
    for (std::uint64_t s : _strides)
        os << std::setw(8) << s;
    os << "\n";
    for (std::size_t r = 0; r < _workingSets.size(); ++r) {
        os << std::setw(10) << formatSize(_workingSets[r]);
        for (std::size_t c = 0; c < _strides.size(); ++c) {
            const double v = _mbs[r * _strides.size() + c];
            os << std::setw(8) << std::fixed << std::setprecision(0)
               << (v < 0 ? 0.0 : v);
        }
        os << "\n";
    }
    os.unsetf(std::ios::fixed);
}

double
Surface::transferSeconds(std::uint64_t bytes, double ws_bytes,
                         double stride) const
{
    const double mbs = interpolate(ws_bytes, stride);
    GASNUB_ASSERT(mbs > 0, _name, ": zero bandwidth at query point");
    return static_cast<double>(bytes) / (mbs * 1e6);
}

void
Surface::enableAttribution(std::vector<std::string> resources)
{
    GASNUB_ASSERT(!resources.empty(),
                  "attribution needs at least one resource");
    GASNUB_ASSERT(_attrResources.empty(),
                  _name, ": attribution already enabled");
    _attrResources = std::move(resources);
    _attrElapsed.assign(_mbs.size(), 0);
    _attrShares.assign(_mbs.size(), {});
}

void
Surface::setAttribution(std::uint64_t ws_bytes, std::uint64_t stride,
                        Tick elapsed,
                        const std::vector<Tick> &shares)
{
    GASNUB_ASSERT(hasAttribution(),
                  _name, ": attribution not enabled");
    GASNUB_ASSERT(shares.size() == _attrResources.size(),
                  _name, ": share count does not match resources");
    Tick sum = 0;
    for (Tick s : shares)
        sum += s;
    GASNUB_ASSERT(sum == elapsed, _name,
                  ": attribution shares sum to ", sum,
                  " but the point elapsed ", elapsed, " ticks");
    const std::size_t r = indexOf(_workingSets, ws_bytes,
                                  "working set");
    const std::size_t c = indexOf(_strides, stride, "stride");
    _attrElapsed[r * _strides.size() + c] = elapsed;
    _attrShares[r * _strides.size() + c] = shares;
}

Tick
Surface::elapsedAt(std::uint64_t ws_bytes, std::uint64_t stride) const
{
    GASNUB_ASSERT(hasAttribution(),
                  _name, ": attribution not enabled");
    const std::size_t r = indexOf(_workingSets, ws_bytes,
                                  "working set");
    const std::size_t c = indexOf(_strides, stride, "stride");
    return _attrElapsed[r * _strides.size() + c];
}

const std::vector<Tick> &
Surface::attributionAt(std::uint64_t ws_bytes,
                       std::uint64_t stride) const
{
    GASNUB_ASSERT(hasAttribution(),
                  _name, ": attribution not enabled");
    const std::size_t r = indexOf(_workingSets, ws_bytes,
                                  "working set");
    const std::size_t c = indexOf(_strides, stride, "stride");
    const std::vector<Tick> &s =
        _attrShares[r * _strides.size() + c];
    GASNUB_ASSERT(s.size() == _attrResources.size(), _name,
                  ": point (", ws_bytes, ",", stride,
                  ") has no attribution yet");
    return s;
}

} // namespace gasnub::core
