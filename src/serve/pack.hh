/**
 * @file
 * The `gas-pack-1` binary surface pack: one machine's planner options
 * — labels, methods, blocking, characterization surfaces including
 * the v2 attribution columns — bundled into a single compact,
 * versioned file.
 *
 * The text `*.surface` directory convention (core/planner_io.hh) is
 * the measurement-side interchange format; the pack is the *serving*
 * side: one sequential read hands a process the whole cost model, and
 * serve::PlannerIndex answers plan queries from it without ever
 * re-parsing text.  Bandwidths are stored as raw IEEE-754 doubles, so
 * a pack round-trip reproduces `loadPlannerDir` predictions
 * bit-for-bit.
 *
 * Layout (all integers little-endian on every supported host; the
 * header carries an endianness tag so a foreign-endian file dies with
 * a clear diagnostic instead of garbage):
 *
 *   offset  size  field
 *        0     8  magic "gaspack1"
 *        8     4  u32 version (= 1)
 *       12     4  u32 endian tag (= 0x67617331)
 *       16     8  u64 total file bytes (truncation check)
 *       24     8  u64 FNV-1a checksum of every byte after this field
 *       32     -  payload:
 *                   str machine            (u32 length + bytes)
 *                   u32 numOptions         (>= 1)
 *                   numOptions x option:
 *                     str label
 *                     u8  method           (0 pull, 1 fetch, 2 deposit)
 *                     u8  strideOnSource   (0/1)
 *                     u16 reserved         (= 0)
 *                     u64 blockBytes
 *                     str surfaceName
 *                     u32 numWorkingSets; numWorkingSets x u64 (ascending)
 *                     u32 numStrides;     numStrides x u64 (ascending)
 *                     f64 x (numWorkingSets*numStrides) bandwidths,
 *                         row-major, finite and > 0
 *                     u32 numAttrResources (0 = no attribution)
 *                     numAttrResources x str resource name
 *                     per grid point: u64 elapsed +
 *                         numAttrResources x u64 shares (sum == elapsed)
 *   trailing 8  u64 end marker (= 0x31646e656b636170, "packend1")
 *
 * Every load fully validates the file: magic, version, endianness,
 * size, checksum, string/array bounds, grid ordering, bandwidth
 * positivity and the attribution exact-sum invariant.  All failures
 * are GASNUB_FATAL naming the file and byte offset — corrupt packs
 * die with a diagnostic, they never read out of bounds.
 */

#ifndef GASNUB_SERVE_PACK_HH
#define GASNUB_SERVE_PACK_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/planner.hh"

namespace gasnub::serve {

/** Pack format constants, shared by writer, loader and tests. */
inline constexpr char kPackMagic[8] = {'g', 'a', 's', 'p',
                                       'a', 'c', 'k', '1'};
inline constexpr std::uint32_t kPackVersion = 1;
inline constexpr std::uint32_t kPackEndianTag = 0x67617331u;
inline constexpr std::uint64_t kPackEndMarker =
    0x31646e656b636170ull; // "packend1" read little-endian

/** One machine's planner options, as carried by a pack file. */
struct MachinePack
{
    std::string machine; ///< e.g. "t3e" — the serving key
    std::vector<core::PlanOption> options;
};

/**
 * Serialize @p pack (machine name + at least one option, every
 * surface complete) into @p os in gas-pack-1 format.
 */
void savePack(const MachinePack &pack, std::ostream &os);

/** savePack() to @p path; fatal when the file cannot be written. */
void savePackFile(const MachinePack &pack, const std::string &path);

/**
 * Parse one gas-pack-1 image already in memory.  @p context names the
 * source (file path) in diagnostics.  Fatal — with context and byte
 * offset — on any malformed input; never reads outside
 * [data, data+size).
 */
MachinePack parsePack(const unsigned char *data, std::size_t size,
                      const std::string &context);

/**
 * Load a pack file: read it to end of file into one buffer (so a pipe
 * works as well as a regular file), then parsePack() it into
 * immutable surfaces.  Fatal when the file cannot be opened or read.
 */
MachinePack loadPackFile(const std::string &path);

} // namespace gasnub::serve

#endif // GASNUB_SERVE_PACK_HH
