#include "serve/pack.hh"

#include <cmath>
#include <cstring>
#include <fstream>
#include <ostream>

#include "sim/logging.hh"

namespace gasnub::serve {

namespace {

// Guards against absurd allocations from crafted length fields; real
// packs are nowhere near these (five options, dozens-point grids).
constexpr std::uint32_t kMaxOptions = 4096;
constexpr std::uint32_t kMaxStringBytes = 1 << 16;
constexpr std::uint64_t kMaxGridCells = 1 << 24;
constexpr std::uint32_t kMaxAttrResources = 1 << 12;

std::uint64_t
fnv1a(const unsigned char *data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint8_t
encodeMethod(remote::TransferMethod m)
{
    switch (m) {
    case remote::TransferMethod::CoherentPull:
        return 0;
    case remote::TransferMethod::Fetch:
        return 1;
    case remote::TransferMethod::Deposit:
        return 2;
    }
    GASNUB_PANIC("bad transfer method");
}

// ------------------------------------------------------------------
// Writer

struct Builder
{
    std::string bytes;

    void
    u8(std::uint8_t v)
    {
        bytes.push_back(static_cast<char>(v));
    }

    template <typename T>
    void
    raw(T v)
    {
        char buf[sizeof(T)];
        std::memcpy(buf, &v, sizeof(T));
        bytes.append(buf, sizeof(T));
    }

    void u16(std::uint16_t v) { raw(v); }
    void u32(std::uint32_t v) { raw(v); }
    void u64(std::uint64_t v) { raw(v); }
    void f64(double v) { raw(v); }

    void
    str(const std::string &s)
    {
        GASNUB_ASSERT(s.size() < kMaxStringBytes,
                      "pack string too long");
        u32(static_cast<std::uint32_t>(s.size()));
        bytes.append(s);
    }
};

} // namespace

void
savePack(const MachinePack &pack, std::ostream &os)
{
    GASNUB_ASSERT(!pack.machine.empty(),
                  "pack needs a machine name");
    GASNUB_ASSERT(!pack.options.empty(),
                  "pack needs at least one option");

    Builder b;
    b.str(pack.machine);
    b.u32(static_cast<std::uint32_t>(pack.options.size()));
    for (const core::PlanOption &o : pack.options) {
        GASNUB_ASSERT(o.surface && o.surface->complete(),
                      "pack option '", o.label,
                      "' has an incomplete surface");
        const core::Surface &s = *o.surface;
        b.str(o.label);
        b.u8(encodeMethod(o.method));
        b.u8(o.strideOnSource ? 1 : 0);
        b.u16(0);
        b.u64(o.blockBytes);
        b.str(s.name());
        b.u32(static_cast<std::uint32_t>(s.workingSets().size()));
        for (std::uint64_t w : s.workingSets())
            b.u64(w);
        b.u32(static_cast<std::uint32_t>(s.strides().size()));
        for (std::uint64_t st : s.strides())
            b.u64(st);
        for (std::uint64_t w : s.workingSets())
            for (std::uint64_t st : s.strides())
                b.f64(s.at(w, st));
        if (!s.hasAttribution()) {
            b.u32(0);
        } else {
            b.u32(static_cast<std::uint32_t>(
                s.attrResources().size()));
            for (const std::string &r : s.attrResources())
                b.str(r);
            for (std::uint64_t w : s.workingSets()) {
                for (std::uint64_t st : s.strides()) {
                    b.u64(s.elapsedAt(w, st));
                    for (Tick v : s.attributionAt(w, st))
                        b.u64(static_cast<std::uint64_t>(v));
                }
            }
        }
    }
    b.u64(kPackEndMarker);

    const std::uint64_t total = 32 + b.bytes.size();
    Builder h;
    h.bytes.append(kPackMagic, sizeof(kPackMagic));
    h.u32(kPackVersion);
    h.u32(kPackEndianTag);
    h.u64(total);
    h.u64(fnv1a(
        reinterpret_cast<const unsigned char *>(b.bytes.data()),
        b.bytes.size()));
    os.write(h.bytes.data(),
             static_cast<std::streamsize>(h.bytes.size()));
    os.write(b.bytes.data(),
             static_cast<std::streamsize>(b.bytes.size()));
}

void
savePackFile(const MachinePack &pack, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        GASNUB_FATAL("cannot open '", path, "' for writing");
    savePack(pack, os);
    os.flush();
    if (!os)
        GASNUB_FATAL("write to '", path, "' failed");
}

// ------------------------------------------------------------------
// Loader

namespace {

/**
 * Bounds-checked read cursor over a pack image.  Every read that
 * would cross the end of the image is fatal, naming the source and
 * the byte offset where the read started — so a truncated or
 * length-corrupted pack dies with a precise diagnostic instead of
 * reading out of bounds.
 */
struct Cursor
{
    const unsigned char *data;
    std::size_t size;
    std::size_t off = 0;
    const std::string &context;

    template <typename... Args>
    [[noreturn]] void
    die(std::size_t at, Args &&...args)
    {
        GASNUB_FATAL("pack '", context, "', offset ", at, ": ",
                     std::forward<Args>(args)...);
    }

    const unsigned char *
    take(std::size_t n, const char *what)
    {
        if (n > size - off)
            die(off, "truncated ", what, " (need ", n, " bytes, ",
                size - off, " remain)");
        const unsigned char *p = data + off;
        off += n;
        return p;
    }

    template <typename T>
    T
    raw(const char *what)
    {
        T v;
        std::memcpy(&v, take(sizeof(T), what), sizeof(T));
        return v;
    }

    std::uint8_t u8(const char *w) { return raw<std::uint8_t>(w); }
    std::uint16_t u16(const char *w) { return raw<std::uint16_t>(w); }
    std::uint32_t u32(const char *w) { return raw<std::uint32_t>(w); }
    std::uint64_t u64(const char *w) { return raw<std::uint64_t>(w); }
    double f64(const char *w) { return raw<double>(w); }

    std::string
    str(const char *what)
    {
        const std::size_t at = off;
        const std::uint32_t len = u32(what);
        if (len >= kMaxStringBytes)
            die(at, what, " length ", len, " exceeds the ",
                kMaxStringBytes, "-byte string bound");
        const unsigned char *p = take(len, what);
        return std::string(reinterpret_cast<const char *>(p), len);
    }
};

std::vector<std::uint64_t>
readGridAxis(Cursor &c, const char *what)
{
    const std::size_t at = c.off;
    const std::uint32_t n = c.u32(what);
    if (n == 0)
        c.die(at, "empty ", what, " axis");
    if (n > kMaxGridCells)
        c.die(at, what, " axis length ", n, " exceeds the grid bound");
    std::vector<std::uint64_t> axis(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::size_t vat = c.off;
        axis[i] = c.u64(what);
        if (i > 0 && axis[i] <= axis[i - 1])
            c.die(vat, what, " axis not strictly ascending (",
                  axis[i - 1], " then ", axis[i], ")");
    }
    return axis;
}

core::PlanOption
readOption(Cursor &c, std::size_t index)
{
    const std::string label = c.str("option label");
    const std::size_t method_at = c.off;
    const std::uint8_t method = c.u8("method");
    if (method > 2)
        c.die(method_at, "option ", index, " ('", label,
              "'): bad method code ", int(method),
              " (0 pull, 1 fetch, 2 deposit)");
    const std::size_t sos_at = c.off;
    const std::uint8_t sos = c.u8("strideOnSource");
    if (sos > 1)
        c.die(sos_at, "option ", index, " ('", label,
              "'): strideOnSource must be 0 or 1, got ", int(sos));
    const std::size_t pad_at = c.off;
    if (c.u16("reserved field") != 0)
        c.die(pad_at, "option ", index, " ('", label,
              "'): reserved field is not zero");
    const std::uint64_t block_bytes = c.u64("blockBytes");
    const std::string surface_name = c.str("surface name");

    const std::vector<std::uint64_t> ws =
        readGridAxis(c, "working-set");
    const std::vector<std::uint64_t> strides =
        readGridAxis(c, "stride");
    const std::uint64_t cells =
        static_cast<std::uint64_t>(ws.size()) * strides.size();
    if (cells > kMaxGridCells)
        c.die(c.off, "option ", index, " ('", label, "'): ",
              ws.size(), "x", strides.size(),
              " grid exceeds the cell bound");

    core::Surface s(surface_name, ws, strides);
    for (std::size_t i = 0; i < ws.size(); ++i) {
        for (std::size_t j = 0; j < strides.size(); ++j) {
            const std::size_t at = c.off;
            const double v = c.f64("bandwidth");
            // The planner divides by these values; like the text
            // loader, refuse non-finite and non-positive entries.
            if (std::isnan(v) || std::isinf(v) || v <= 0)
                c.die(at, "option ", index, " ('", label,
                      "'), working set ", ws[i], ", stride ",
                      strides[j], ": bad bandwidth ", v,
                      "; packs hold finite positive MB/s");
            s.set(ws[i], strides[j], v);
        }
    }

    const std::size_t nres_at = c.off;
    const std::uint32_t nres = c.u32("attribution resource count");
    if (nres > kMaxAttrResources)
        c.die(nres_at, "attribution resource count ", nres,
              " exceeds the bound");
    if (nres > 0) {
        std::vector<std::string> resources(nres);
        for (auto &r : resources)
            r = c.str("attribution resource name");
        s.enableAttribution(resources);
        for (std::size_t i = 0; i < ws.size(); ++i) {
            for (std::size_t j = 0; j < strides.size(); ++j) {
                const std::size_t at = c.off;
                const std::uint64_t elapsed =
                    c.u64("attribution elapsed");
                std::vector<Tick> shares(nres);
                std::uint64_t sum = 0;
                for (auto &v : shares) {
                    const std::uint64_t sv =
                        c.u64("attribution share");
                    sum += sv;
                    v = static_cast<Tick>(sv);
                }
                // Exact-sum is part of the format, as in surface v2.
                if (sum != elapsed)
                    c.die(at, "option ", index, " ('", label,
                          "'), working set ", ws[i], ", stride ",
                          strides[j], ": attribution shares sum to ",
                          sum, " ticks but the point elapsed ",
                          elapsed);
                s.setAttribution(ws[i], strides[j],
                                 static_cast<Tick>(elapsed), shares);
            }
        }
    }

    const bool stride_on_source = sos == 1;
    const remote::TransferMethod m =
        method == 0   ? remote::TransferMethod::CoherentPull
        : method == 1 ? remote::TransferMethod::Fetch
                      : remote::TransferMethod::Deposit;
    return core::PlanOption(label, m, stride_on_source, std::move(s),
                            block_bytes);
}

} // namespace

MachinePack
parsePack(const unsigned char *data, std::size_t size,
          const std::string &context)
{
    Cursor c{data, size, 0, context};
    if (size < 48)
        c.die(0, "file is ", size,
              " bytes; even an empty pack needs 48");
    const unsigned char *magic = c.take(8, "magic");
    if (std::memcmp(magic, kPackMagic, 8) != 0)
        c.die(0, "bad magic; not a gas-pack-1 file");
    const std::size_t ver_at = c.off;
    const std::uint32_t version = c.u32("version");
    if (version != kPackVersion)
        c.die(ver_at, "unsupported pack version ", version,
              " (this build reads version ", kPackVersion, ")");
    const std::size_t endian_at = c.off;
    if (c.u32("endian tag") != kPackEndianTag)
        c.die(endian_at,
              "endianness tag mismatch; the pack was written on a "
              "foreign-endian host");
    const std::size_t total_at = c.off;
    const std::uint64_t total = c.u64("total size");
    if (total != size)
        c.die(total_at, "header says ", total,
              " total bytes but the file has ", size,
              "; truncated or padded pack");
    const std::size_t sum_at = c.off;
    const std::uint64_t checksum = c.u64("checksum");
    const std::uint64_t actual = fnv1a(data + 32, size - 32);
    if (checksum != actual)
        c.die(sum_at, "checksum mismatch (header ", checksum,
              ", payload hashes to ", actual,
              "); the pack is corrupt");

    MachinePack pack;
    pack.machine = c.str("machine name");
    if (pack.machine.empty())
        c.die(32, "empty machine name");
    const std::size_t nopt_at = c.off;
    const std::uint32_t nopt = c.u32("option count");
    if (nopt == 0)
        c.die(nopt_at, "pack holds zero options");
    if (nopt > kMaxOptions)
        c.die(nopt_at, "option count ", nopt, " exceeds the bound");
    pack.options.reserve(nopt);
    for (std::uint32_t i = 0; i < nopt; ++i)
        pack.options.push_back(readOption(c, i));

    const std::size_t end_at = c.off;
    if (c.u64("end marker") != kPackEndMarker)
        c.die(end_at, "bad end marker");
    if (c.off != size)
        c.die(c.off, size - c.off,
              " trailing bytes after the end marker");
    return pack;
}

MachinePack
loadPackFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        GASNUB_FATAL("cannot open pack '", path, "' for reading");
    // Read to end of file rather than trusting a size from stat, so
    // pipes and other unsized inputs load too.
    std::vector<unsigned char> buf;
    char chunk[1 << 16];
    while (is.read(chunk, sizeof(chunk)), is.gcount() > 0)
        buf.insert(buf.end(), chunk, chunk + is.gcount());
    if (is.bad())
        GASNUB_FATAL("cannot read pack '", path, "'");
    return parsePack(buf.data(), buf.size(), path);
}

} // namespace gasnub::serve
