#include "mem/dram.hh"

#include <bit>

#include "sim/units.hh"

namespace gasnub::mem {

namespace {

Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * 1000.0 + 0.5);
}

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Dram::Dram(const DramConfig &config, stats::Group *parent)
    : _config(config),
      _rowHitTicks(nsToTicks(config.rowHitNs)),
      _rowMissTicks(nsToTicks(config.rowMissNs)),
      _bankBusyTicks(nsToTicks(config.bankBusyNs)),
      _writeBusyTicks(nsToTicks(config.writeBusyNs >= 0
                                    ? config.writeBusyNs
                                    : config.bankBusyNs)),
      _banks(config.banks),
      _stats(config.name),
      _reads(&_stats, config.name + ".reads", "read accesses"),
      _writes(&_stats, config.name + ".writes", "write accesses"),
      _rowHits(&_stats, config.name + ".rowHits",
               "accesses hitting the open row"),
      _rowMisses(&_stats, config.name + ".rowMisses",
                 "accesses opening a new row"),
      _bankConflicts(&_stats, config.name + ".bankConflicts",
                     "accesses delayed by a busy bank"),
      _bankAccesses(&_stats, config.name + ".bankAccesses",
                    "accesses per bank", config.banks),
      _bankOccupancy(&_stats, config.name + ".bankBusyTicks",
                     "bank occupancy in ticks per bank", config.banks),
      _bandwidth(&_stats, config.name + ".bandwidth",
                 "bytes transferred per time bucket"),
      _latency(&_stats, config.name + ".latency",
               "access latency in ticks (log2 buckets)"),
      _rowHitRate(&_stats, config.name + ".rowHitRate",
                  "fraction of accesses hitting the open row",
                  [this] {
                      const double n =
                          _rowHits.value() + _rowMisses.value();
                      return n > 0 ? _rowHits.value() / n : 0.0;
                  }),
      _traceTrack(trace::Tracer::instance().track(config.name))
{
    GASNUB_ASSERT(isPow2(config.banks), "banks must be pow2");
    GASNUB_ASSERT(isPow2(config.interleaveBytes),
                  "interleave must be pow2");
    GASNUB_ASSERT(isPow2(config.rowBytes), "row size must be pow2");
    GASNUB_ASSERT(config.busMBs > 0, "bus bandwidth must be positive");
    _interleaveShift = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(
            config.interleaveBytes)));
    _bankShift = static_cast<std::uint32_t>(std::countr_zero(
        static_cast<std::uint64_t>(config.banks)));
    _rowShift = static_cast<std::uint32_t>(std::countr_zero(
        static_cast<std::uint64_t>(config.rowBytes)));
    _interleaveMask = static_cast<Addr>(config.interleaveBytes) - 1;
    // The channel and banks are shared between the processor's demand
    // stream and the network engine's accesses: allow backfill.
    _bus.enableBackfill();
    for (Bank &b : _banks)
        b.busy.enableBackfill();
    if (parent)
        parent->addChild(&_stats);
}

std::uint32_t
Dram::bankOf(Addr addr) const
{
    return static_cast<std::uint32_t>(
        (addr >> _interleaveShift) & (_config.banks - 1));
}

std::uint64_t
Dram::rowOf(Addr addr) const
{
    // Within-bank byte address: strip the bank-select bits.  All
    // geometry is pow2 (asserted at construction), so the legacy
    // divide/modulo chain reduces to shifts and masks.
    const std::uint64_t chunk =
        addr >> (_interleaveShift + _bankShift);
    const std::uint64_t within =
        (chunk << _interleaveShift) + (addr & _interleaveMask);
    return within >> _rowShift;
}

DramResult
Dram::access(Addr addr, AccessType type, Tick earliest,
             std::uint32_t bytes)
{
    if (type == AccessType::Read)
        ++_reads;
    else
        ++_writes;

    // Accesses come in a handful of sizes (line fills, word writes);
    // cache the last conversion so the hot path skips the FP math.
    if (bytes != _lastTfBytes) {
        _lastTfBytes = bytes;
        _lastTfTicks = ticksForBytes(bytes, _config.busMBs);
    }
    const Tick transfer_t = _lastTfTicks;

    // Accesses wider than the full interleave span stripe across all
    // banks; no single bank serializes them and the row buffers are
    // streamed (page-mode bursts). Only the channel is charged.
    if (bytes >= static_cast<std::uint64_t>(_config.interleaveBytes) *
                     _config.banks) {
        ++_rowHits;
        DramResult res;
        res.rowHit = true;
        if (_config.splitTransactionChannel) {
            const Tick cs = _bus.acquire(earliest + _rowHitTicks,
                                         transfer_t);
            res.start = earliest;
            res.dataReady = cs + transfer_t;
            if (_acct)
                _acct->charge(_chanRes, cs, cs + transfer_t);
        } else {
            const Tick cs = _bus.acquire(earliest,
                                         _rowHitTicks + transfer_t);
            res.start = cs;
            res.dataReady = cs + _rowHitTicks + transfer_t;
            if (_acct)
                _acct->charge(_chanRes, cs,
                              cs + _rowHitTicks + transfer_t);
        }
        _bandwidth.addBytes(res.dataReady, bytes);
        _latency.sample(res.dataReady - earliest);
        GASNUB_TRACE(trace::Category::Mem, _traceTrack,
                     type == AccessType::Read ? "dram.read"
                                              : "dram.write",
                     res.start, res.dataReady, "bytes", bytes);
        return res;
    }

    const std::uint32_t bank_idx = bankOf(addr);
    Bank &bank = _banks[bank_idx];
    const std::uint64_t row = rowOf(addr);

    const bool row_hit = bank.hasOpenRow && bank.openRow == row;
    if (row_hit)
        ++_rowHits;
    else
        ++_rowMisses;
    bank.hasOpenRow = true;
    bank.openRow = row;

    const Tick service = row_hit ? _rowHitTicks : _rowMissTicks;
    const Tick transfer = transfer_t;
    const Tick recovery = type == AccessType::Write ? _writeBusyTicks
                                                    : _bankBusyTicks;

    if (earliest < bank.busy.freeAt())
        ++_bankConflicts;
    // Bank occupied for access + recovery; the single command/data
    // channel of the node's memory system serializes the row access
    // plus the transfer (all three machines have one memory port per
    // node, which is why local copies run at roughly half the pure
    // load bandwidth — paper Section 6.1).
    const Tick bank_start = bank.busy.acquire(earliest,
                                              service + recovery);
    _bankAccesses[bank_idx] += 1;
    _bankOccupancy[bank_idx] += static_cast<double>(service + recovery);
    if (_acct) {
        if (bank_start > earliest)
            _acct->stall(_bankRes, bank_start - earliest);
        _acct->charge(_bankRes, bank_start,
                      bank_start + service + recovery);
    }
    DramResult res;
    res.rowHit = row_hit;
    if (_config.splitTransactionChannel) {
        const Tick chan_start =
            _bus.acquire(bank_start + service, transfer);
        res.start = bank_start;
        res.dataReady = chan_start + transfer;
        if (_acct)
            _acct->charge(_chanRes, chan_start, chan_start + transfer);
    } else {
        const Tick chan_start = _bus.acquire(bank_start,
                                             service + transfer);
        res.start = chan_start;
        res.dataReady = chan_start + service + transfer;
        if (_acct)
            _acct->charge(_chanRes, chan_start,
                          chan_start + service + transfer);
    }
    _bandwidth.addBytes(res.dataReady, bytes);
    _latency.sample(res.dataReady - earliest);
    GASNUB_TRACE(trace::Category::Mem, _traceTrack,
                 type == AccessType::Read ? "dram.read" : "dram.write",
                 res.start, res.dataReady, "bank",
                 static_cast<std::uint64_t>(bank_idx), "bytes", bytes);
    return res;
}

void
Dram::reset()
{
    for (Bank &b : _banks) {
        b.busy.reset();
        b.hasOpenRow = false;
        b.openRow = ~0ULL;
    }
    _bus.reset();
}

} // namespace gasnub::mem
