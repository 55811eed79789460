/**
 * @file
 * Bottleneck report analyzer: turn the attribution outputs of the
 * other tools into a ranked "where did the time go" report.
 *
 *   report [--stats-json FILE] [--format text|json|md] [SURFACE...]
 *
 * Two complementary inputs, either or both:
 *
 *  - SURFACE files saved by `characterize --attribution --out` (format
 *    version 2).  Every grid point carries an exact decomposition of
 *    its elapsed ticks into per-resource shares; the report aggregates
 *    the points into (working set x stride) regions and ranks each
 *    region's resources by share.
 *
 *  - A --stats-json tree from `characterize`, a figure bench or any
 *    stats Group::dumpJson.  The report extracts every timeAccount
 *    ledger (cumulative busy/stall ticks per resource) and the
 *    trace.dropped counter, and ranks resources by busy time.
 *
 * The exact-sum invariant is re-validated on every surface point: if
 * any point's shares do not sum to its elapsed ticks (100% +- epsilon
 * after normalization), the report fails with exit code 1 — CI runs
 * this tool to enforce the invariant end to end.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/surface_io.hh"
#include "sim/json.hh"
#include "sim/units.hh"

#include "json_util.hh"

using namespace gasnub;
using tooljson::JsonParser;
using tooljson::JsonValue;

namespace {

void
usage()
{
    std::cerr
        << "usage: report [--stats-json FILE] [--format text|json|md] "
           "[SURFACE...]\n"
           "  SURFACE           surface file saved by 'characterize "
           "--attribution --out'\n"
           "  --stats-json FILE stats tree from --stats-json "
           "(characterize or a figure bench)\n"
           "  --format FMT      text (default), json, or md\n"
           "exit status: 0 ok, 1 attribution invariant violated, 2 "
           "bad usage/input\n";
    std::exit(2);
}

// ------------------------------------------------------------------
// Report model

/** What a resource class name means, for humans. */
const char *
friendlyName(const std::string &res)
{
    static const std::map<std::string, const char *> names = {
        {"sw.overhead", "software overhead / unhidden latency"},
        {"cpu.issue", "CPU issue slots"},
        {"cache.port", "cache port occupancy"},
        {"stream", "stream-buffer fill"},
        {"wbq", "write-back queue drain"},
        {"dram.bank", "DRAM bank busy (page misses)"},
        {"dram.chan", "DRAM channel transfer"},
        {"bus.addr", "bus arbitration (address phase)"},
        {"bus.dram.bank", "shared-memory DRAM bank busy"},
        {"bus.dram.chan", "shared-memory DRAM channel"},
        {"noc.link", "link serialization"},
        {"noc.nic", "NIC processing"},
        {"engine", "remote-engine request issue"},
    };
    const auto it = names.find(res);
    return it == names.end() ? "" : it->second;
}

/** One ranked slice of a region's (or ledger's) time. */
struct Slice
{
    std::string resource;
    double share = 0; ///< percent of the region's elapsed time
    std::uint64_t ticks = 0;
};

/** One aggregated region of a surface. */
struct Region
{
    std::string wsBand;
    std::string strideBand;
    std::size_t points = 0;
    std::uint64_t elapsed = 0;
    std::vector<Slice> slices; ///< ranked, all resources > 0
};

/** A reported unit: one surface or one timeAccount ledger. */
struct Report
{
    std::string title;
    std::string source; ///< "surface" or "stats"
    std::vector<Region> regions;
};

bool violation = false;

std::string
wsBandOf(std::uint64_t ws)
{
    if (ws <= 64_KiB)
        return "ws<=64K";
    if (ws < 1_MiB)
        return "64K<ws<1M";
    return "ws>=1M";
}

std::string
strideBandOf(std::uint64_t st)
{
    if (st == 1)
        return "stride 1";
    if (st <= 8)
        return "stride 2-8";
    if (st <= 32)
        return "stride 9-32";
    return "stride >=33";
}

std::vector<Slice>
rankSlices(const std::vector<std::string> &names,
           const std::vector<std::uint64_t> &ticks,
           std::uint64_t total)
{
    std::vector<Slice> out;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (ticks[i] == 0)
            continue;
        Slice s;
        s.resource = names[i];
        s.ticks = ticks[i];
        s.share = total == 0
                      ? 0
                      : 100.0 * static_cast<double>(ticks[i]) /
                            static_cast<double>(total);
        out.push_back(s);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Slice &a, const Slice &b) {
                         return a.ticks > b.ticks;
                     });
    return out;
}

Report
reportSurface(const std::string &path)
{
    const core::Surface s = core::loadSurfaceFile(path);
    Report rep;
    rep.title = s.name();
    rep.source = "surface";
    if (!s.hasAttribution()) {
        std::cerr << "report: " << path
                  << ": surface has no attribution section (re-run "
                     "characterize with --attribution)\n";
        std::exit(2);
    }

    const std::vector<std::string> &res = s.attrResources();
    struct Bucket
    {
        std::size_t points = 0;
        std::uint64_t elapsed = 0;
        std::vector<std::uint64_t> ticks;
    };
    // Keyed by (ws band, stride band) in first-seen order, which is
    // grid order — deterministic.
    std::vector<std::pair<std::pair<std::string, std::string>, Bucket>>
        buckets;
    auto bucketOf = [&](const std::string &wb, const std::string &sb)
        -> Bucket & {
        for (auto &b : buckets)
            if (b.first.first == wb && b.first.second == sb)
                return b.second;
        buckets.push_back({{wb, sb}, Bucket{}});
        buckets.back().second.ticks.assign(res.size(), 0);
        return buckets.back().second;
    };

    for (std::uint64_t w : s.workingSets()) {
        for (std::uint64_t st : s.strides()) {
            const Tick elapsed = s.elapsedAt(w, st);
            const std::vector<Tick> &shares = s.attributionAt(w, st);
            Tick sum = 0;
            for (Tick v : shares)
                sum += v;
            if (sum != elapsed) {
                // loadSurface validates this too; double-checking here
                // keeps the exit-1 contract even if the loader's
                // validation ever regresses.
                std::cerr << "report: " << path << ": point (ws " << w
                          << ", stride " << st << ") shares sum to "
                          << sum << " of " << elapsed << " ticks\n";
                violation = true;
            }
            Bucket &b = bucketOf(wsBandOf(w), strideBandOf(st));
            ++b.points;
            b.elapsed += elapsed;
            for (std::size_t i = 0; i < res.size(); ++i)
                b.ticks[i] += shares[i];
        }
    }

    for (const auto &kv : buckets) {
        Region r;
        r.wsBand = kv.first.first;
        r.strideBand = kv.first.second;
        r.points = kv.second.points;
        r.elapsed = kv.second.elapsed;
        r.slices = rankSlices(res, kv.second.ticks, kv.second.elapsed);
        double pct = 0;
        for (const Slice &sl : r.slices)
            pct += sl.share;
        if (r.elapsed > 0 && std::fabs(pct - 100.0) > 0.01) {
            std::cerr << "report: " << path << ": region " << r.wsBand
                      << " x " << r.strideBand << " shares sum to "
                      << pct << "%\n";
            violation = true;
        }
        rep.regions.push_back(std::move(r));
    }
    return rep;
}

/** Walk a stats tree; collect timeAccount ledgers as reports. */
void
collectLedgers(const JsonValue &group, const std::string &path,
               std::vector<Report> &out)
{
    const JsonValue *name = group.find("name");
    const std::string here =
        path.empty()
            ? (name ? name->string : "")
            : path + "/" + (name ? name->string : "");
    if (const JsonValue *stats = group.find("stats")) {
        for (const JsonValue &st : stats->array) {
            const JsonValue *type = st.find("type");
            if (!type || type->string != "timeAccount")
                continue;
            const JsonValue *sn = st.find("name");
            const JsonValue *resources = st.find("resources");
            if (!resources)
                continue;
            std::vector<std::string> names;
            std::vector<std::uint64_t> busy;
            for (const JsonValue &r : resources->array) {
                const JsonValue *rn = r.find("name");
                const JsonValue *b = r.find("busyTicks");
                names.push_back(rn ? rn->string : "?");
                busy.push_back(static_cast<std::uint64_t>(
                    b ? b->number : 0));
            }
            std::uint64_t total = 0;
            for (std::uint64_t b : busy)
                total += b;
            Report rep;
            rep.title = sn ? sn->string : here;
            rep.source = "stats";
            Region r;
            r.wsBand = "cumulative";
            r.strideBand = "all points";
            r.points = 1;
            r.elapsed = total;
            // Shares here are "percent of all busy ticks", not of an
            // elapsed window: the cumulative ledger spans many
            // overlapping points, so there is no 100%-of-elapsed
            // invariant to enforce.
            r.slices = rankSlices(names, busy, total);
            rep.regions.push_back(std::move(r));
            out.push_back(std::move(rep));
        }
    }
    if (const JsonValue *groups = group.find("groups"))
        for (const JsonValue &g : groups->array)
            collectLedgers(g, here, out);
}

// ------------------------------------------------------------------
// Formatting

void
printText(const std::vector<Report> &reports, std::ostream &os)
{
    for (const Report &rep : reports) {
        os << "== " << rep.title << " (" << rep.source << ") ==\n";
        for (const Region &r : rep.regions) {
            os << "  " << r.wsBand << " x " << r.strideBand << " ("
               << r.points << " point" << (r.points == 1 ? "" : "s")
               << ", " << r.elapsed << " ticks)\n";
            if (r.slices.empty()) {
                os << "    (no attributed time)\n";
                continue;
            }
            for (const Slice &s : r.slices) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%6.2f%%", s.share);
                os << "    " << buf << "  " << s.resource;
                const char *fr = friendlyName(s.resource);
                if (*fr)
                    os << " — " << fr;
                os << "\n";
            }
        }
        os << "\n";
    }
}

void
printMd(const std::vector<Report> &reports, std::ostream &os)
{
    for (const Report &rep : reports) {
        os << "## " << rep.title << " (" << rep.source << ")\n\n";
        os << "| region | points | share | resource | meaning |\n";
        os << "|---|---|---|---|---|\n";
        for (const Region &r : rep.regions) {
            const std::string region =
                r.wsBand + " × " + r.strideBand;
            for (const Slice &s : r.slices) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%.2f%%", s.share);
                os << "| " << region << " | " << r.points << " | "
                   << buf << " | `" << s.resource << "` | "
                   << friendlyName(s.resource) << " |\n";
            }
        }
        os << "\n";
    }
}

void
printJson(const std::vector<Report> &reports, std::ostream &os)
{
    os << "{\"reports\":[";
    bool firstRep = true;
    for (const Report &rep : reports) {
        os << (firstRep ? "" : ",")
           << "{\"title\":" << json::quoted(rep.title)
           << ",\"source\":" << json::quoted(rep.source)
           << ",\"regions\":[";
        firstRep = false;
        bool firstReg = true;
        for (const Region &r : rep.regions) {
            os << (firstReg ? "" : ",")
               << "{\"workingSetBand\":" << json::quoted(r.wsBand)
               << ",\"strideBand\":" << json::quoted(r.strideBand)
               << ",\"points\":" << r.points
               << ",\"elapsedTicks\":" << r.elapsed
               << ",\"resources\":[";
            firstReg = false;
            bool firstSl = true;
            for (const Slice &s : r.slices) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%.4f", s.share);
                os << (firstSl ? "" : ",")
                   << "{\"resource\":" << json::quoted(s.resource)
                   << ",\"sharePercent\":" << buf
                   << ",\"ticks\":" << s.ticks << "}";
                firstSl = false;
            }
            os << "]}";
        }
        os << "]}";
    }
    os << "],\"invariantViolated\":" << (violation ? "true" : "false")
       << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string format = "text";
    std::string stats_json;
    std::vector<std::string> surfaces;
    for (int i = 1; i < argc; ++i) {
        const std::string opt = argv[i];
        if (opt == "--help" || opt == "-h")
            usage();
        else if (opt == "--format" || opt == "--stats-json") {
            if (i + 1 >= argc)
                usage();
            (opt == "--format" ? format : stats_json) = argv[++i];
        } else if (opt.rfind("--format=", 0) == 0) {
            format = opt.substr(9);
        } else if (opt.rfind("--stats-json=", 0) == 0) {
            stats_json = opt.substr(13);
        } else if (opt.rfind("--", 0) == 0) {
            usage();
        } else {
            surfaces.push_back(opt);
        }
    }
    if (format != "text" && format != "json" && format != "md")
        usage();
    if (stats_json.empty() && surfaces.empty())
        usage();

    std::vector<Report> reports;
    for (const std::string &path : surfaces)
        reports.push_back(reportSurface(path));
    if (!stats_json.empty()) {
        std::ifstream is(stats_json);
        if (!is) {
            std::cerr << "report: cannot open " << stats_json << "\n";
            return 2;
        }
        std::ostringstream ss;
        ss << is.rdbuf();
        const std::string text = ss.str();
        JsonParser parser(text, "report: " + stats_json);
        const JsonValue root = parser.parse();
        const std::size_t before = reports.size();
        collectLedgers(root, "", reports);
        if (reports.size() == before) {
            std::cerr << "report: " << stats_json
                      << ": no timeAccount ledger found (re-run with "
                         "--attribution)\n";
            return 2;
        }
    }

    if (format == "json")
        printJson(reports, std::cout);
    else if (format == "md")
        printMd(reports, std::cout);
    else
        printText(reports, std::cout);

    if (violation) {
        std::cerr << "report: attribution invariant violated\n";
        return 1;
    }
    return 0;
}
