/**
 * @file
 * The characterization surface of the extended copy-transfer model.
 *
 * The basic copy-transfer model [Stricker & Gross, ISCA'95]
 * characterizes a memory system by the asymptotic bandwidth of copy
 * transfers as a function of the access pattern (stride).  The paper
 * extends it "by a working set parameter to capture the temporal
 * locality" — the result is a 2D surface (working set x stride ->
 * MByte/s), exactly what Figures 1-8 plot.
 */

#ifndef GASNUB_CORE_SURFACE_HH
#define GASNUB_CORE_SURFACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace gasnub::core {

/** One measured point of a characterization. */
struct SurfacePoint
{
    std::uint64_t wsBytes = 0;
    std::uint64_t stride = 1;
    double mbs = 0;
};

/**
 * A query point located on a surface grid: the lower corner of the
 * grid cell that holds it and its log2-space weights toward the upper
 * corner.  Surfaces with the same axes locate a point identically, so
 * one cell serves every option swept on the same grid.
 */
struct GridCell
{
    std::size_t r = 0; ///< working-set row
    std::size_t c = 0; ///< stride column
    double wr = 0;     ///< weight of row r + 1
    double wc = 0;     ///< weight of column c + 1
};

/**
 * A (working set x stride) -> bandwidth surface.
 *
 * Built on a fixed grid; queries between grid points interpolate
 * bilinearly in log2(working set) x log2(stride) space, which matches
 * the axes of the paper's figures.
 */
class Surface
{
  public:
    /**
     * @param name          Label, e.g.\ "DEC 8400 local loads".
     * @param working_sets  Grid of working-set sizes (ascending).
     * @param strides       Grid of strides (ascending).
     */
    Surface(std::string name, std::vector<std::uint64_t> working_sets,
            std::vector<std::uint64_t> strides);

    const std::string &name() const { return _name; }
    const std::vector<std::uint64_t> &workingSets() const
    {
        return _workingSets;
    }
    const std::vector<std::uint64_t> &strides() const
    {
        return _strides;
    }

    /** Store the measured bandwidth at a grid point. */
    void set(std::uint64_t ws_bytes, std::uint64_t stride, double mbs);

    /** Exact grid lookup; fatal if the point is not on the grid. */
    double at(std::uint64_t ws_bytes, std::uint64_t stride) const;

    /** @return true once every grid point has been filled. */
    bool complete() const;

    /** @return true when @p o has exactly this surface's axes. */
    bool sameAxes(const Surface &o) const
    {
        return _workingSets == o._workingSets &&
               _strides == o._strides;
    }

    /**
     * Bandwidth estimate at an arbitrary (ws, stride), bilinear in
     * log-log space; clamps outside the grid.  Fatal when the surface
     * is incomplete.
     */
    double interpolate(double ws_bytes, double stride) const;

    /** The grid cell and weights of (ws, stride); clamps outside. */
    GridCell locate(double ws_bytes, double stride) const;

    /**
     * Bilinear estimate at a cell from locate() on this surface or
     * on one with the same axes.  The caller guarantees complete().
     */
    double interpolateAt(const GridCell &cell) const;

    /** All points in row-major (working set, stride) order. */
    std::vector<SurfacePoint> points() const;

    /**
     * Print the surface as the paper's tables: one row per working
     * set, one column per stride, bandwidth in MByte/s.
     */
    void print(std::ostream &os) const;

    /**
     * Predicted time in seconds to move @p bytes with this access
     * pattern at working set @p ws_bytes (the cost-model query a
     * compiler makes).
     */
    double transferSeconds(std::uint64_t bytes, double ws_bytes,
                           double stride) const;

    /**
     * Attach a bottleneck-attribution layer: each grid point then
     * additionally records its elapsed ticks and how those ticks
     * decompose across the named resources (sim::TimeAccount shares,
     * which sum exactly to the elapsed time).  @p resources fixes the
     * share order for every point.
     */
    void enableAttribution(std::vector<std::string> resources);

    /** @return true when enableAttribution() was called. */
    bool hasAttribution() const { return !_attrResources.empty(); }

    /** Resource names of the attribution shares, in share order. */
    const std::vector<std::string> &attrResources() const
    {
        return _attrResources;
    }

    /**
     * Store one point's attribution.  @p shares must match the
     * resource order of enableAttribution() and sum to @p elapsed
     * exactly (integer ticks).
     */
    void setAttribution(std::uint64_t ws_bytes, std::uint64_t stride,
                        Tick elapsed, const std::vector<Tick> &shares);

    /** Elapsed ticks of a grid point (attribution must be enabled). */
    Tick elapsedAt(std::uint64_t ws_bytes, std::uint64_t stride) const;

    /** Attribution shares of a grid point, in attrResources() order. */
    const std::vector<Tick> &
    attributionAt(std::uint64_t ws_bytes, std::uint64_t stride) const;

  private:
    std::size_t indexOf(const std::vector<std::uint64_t> &grid,
                        std::uint64_t value, const char *what) const;

    std::string _name;
    std::vector<std::uint64_t> _workingSets;
    std::vector<std::uint64_t> _strides;
    std::vector<double> _log2WorkingSets; ///< log2 of each axis value
    std::vector<double> _log2Strides;
    std::vector<double> _mbs; ///< row-major, -1 = unset

    // Attribution layer (optional; empty resource list = disabled).
    std::vector<std::string> _attrResources;
    std::vector<Tick> _attrElapsed;              ///< row-major
    std::vector<std::vector<Tick>> _attrShares;  ///< row-major
};

} // namespace gasnub::core

#endif // GASNUB_CORE_SURFACE_HH
