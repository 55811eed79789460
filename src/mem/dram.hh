/**
 * @file
 * A banked, page-mode DRAM model.
 *
 * All three machines of the paper use interleaved DRAM with row-buffer
 * ("page mode") acceleration: the T3D data sheet notes that "DRAM
 * accesses within the same DRAM page are accelerated" and the measured
 * T3E deposit ripples (Figure 8) come from bank conflicts at the
 * destination node.  The model tracks, per bank, the open row and the
 * busy-until time; a shared data bus serializes transfers.
 */

#ifndef GASNUB_MEM_DRAM_HH
#define GASNUB_MEM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/access.hh"
#include "mem/resource.hh"
#include "sim/stats.hh"
#include "sim/time_account.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace gasnub::mem {

/** Static configuration of a DRAM subsystem (one node / one board). */
struct DramConfig
{
    std::string name = "dram";
    std::uint32_t banks = 8;            ///< number of banks (pow2)
    std::uint32_t interleaveBytes = 64; ///< consecutive-bank granularity
    std::uint32_t rowBytes = 2048;      ///< row-buffer (page) size
    double rowHitNs = 60;               ///< access hitting the open row
    double rowMissNs = 150;             ///< precharge + activate + access
    double bankBusyNs = 40;             ///< bank recovery after a read
    /**
     * Bank recovery after a write (write-recovery time); < 0 means
     * "same as bankBusyNs".  The T3E destination ripples of Figure 8
     * come from this asymmetry: scatter writes that stay within one
     * bank parity serialize on write recovery while gather reads do
     * not.
     */
    double writeBusyNs = -1;
    double busMBs = 1200;               ///< shared data-bus bandwidth
    /**
     * When true the data channel is split-transaction (the DEC 8400's
     * pipelined system bus): only the transfer occupies it and banks
     * provide the parallelism.  When false (the Crays' single node
     * memory port) the row access serializes on the channel too.
     */
    bool splitTransactionChannel = false;
};

/** Timing outcome of one DRAM access. */
struct DramResult
{
    Tick start = 0;     ///< when the bank began service
    Tick dataReady = 0; ///< when the last byte is available
    bool rowHit = false;
};

/**
 * Banked page-mode DRAM with a shared data bus.
 *
 * The model is address-accurate (bank and row derived from the
 * address) and time-ordered: callers present a monotone-ish stream of
 * earliest-start times; conflicts push accesses back.
 */
class Dram
{
  public:
    /**
     * @param config Geometry and timing.
     * @param parent Stats group to register under (may be null).
     */
    explicit Dram(const DramConfig &config,
                  stats::Group *parent = nullptr);

    /**
     * Access @p bytes starting at @p addr.
     *
     * @param addr     Byte address of the first byte.
     * @param type     Read or Write (same timing, separate stats).
     * @param earliest Earliest tick the access may start.
     * @param bytes    Transfer size (a cache line, a coalesced WBQ
     *                 entry, or a single word for engine accesses).
     * @return start/ready times and row-hit flag.
     */
    DramResult access(Addr addr, AccessType type, Tick earliest,
                      std::uint32_t bytes);

    /** Bank index for @p addr (exposed for tests and the NoC model). */
    std::uint32_t bankOf(Addr addr) const;

    /** Row index within the bank for @p addr. */
    std::uint64_t rowOf(Addr addr) const;

    const DramConfig &config() const { return _config; }

    /** Drop all open rows and reservations (between experiments). */
    void reset();

    /**
     * Attach the machine's time account; @p bank / @p chan name the
     * resource classes this DRAM charges (per-node DRAMs share
     * "dram.*", the 8400's shared memory charges "bus.dram.*").  Null
     * (the default) disables accounting at zero cost.
     */
    void
    setTimeAccount(sim::TimeAccount *acct, sim::TimeAccount::ResId bank,
                   sim::TimeAccount::ResId chan)
    {
        _acct = acct;
        _bankRes = bank;
        _chanRes = chan;
    }

    stats::Group &statsGroup() { return _stats; }

    std::uint64_t rowHits() const
    {
        return static_cast<std::uint64_t>(_rowHits.value());
    }
    std::uint64_t rowMisses() const
    {
        return static_cast<std::uint64_t>(_rowMisses.value());
    }
    std::uint64_t bankConflicts() const
    {
        return static_cast<std::uint64_t>(_bankConflicts.value());
    }

  private:
    struct Bank
    {
        Resource busy;
        std::uint64_t openRow = ~0ULL;
        bool hasOpenRow = false;
    };

    DramConfig _config;
    Tick _rowHitTicks;
    Tick _rowMissTicks;
    Tick _bankBusyTicks;
    Tick _writeBusyTicks;
    // Address-decode shift/mask forms of the pow2 geometry (asserted
    // in the constructor), so bankOf/rowOf divide-free on the hot path.
    std::uint32_t _interleaveShift = 0;
    std::uint32_t _bankShift = 0;
    std::uint32_t _rowShift = 0;
    Addr _interleaveMask = 0;
    std::uint64_t _lastTfBytes = 0; ///< ticksForBytes memo key
    Tick _lastTfTicks = 0;          ///< ... and its value
    std::vector<Bank> _banks;
    Resource _bus;
    sim::TimeAccount *_acct = nullptr;
    sim::TimeAccount::ResId _bankRes = 0;
    sim::TimeAccount::ResId _chanRes = 0;

    stats::Group _stats;
    stats::Scalar _reads;
    stats::Scalar _writes;
    stats::Scalar _rowHits;
    stats::Scalar _rowMisses;
    stats::Scalar _bankConflicts;
    stats::Vector _bankAccesses;  ///< accesses per bank
    stats::Vector _bankOccupancy; ///< busy ticks per bank
    stats::IntervalBandwidth _bandwidth;
    stats::Histogram _latency; ///< log2 access latency in ticks
    stats::Formula _rowHitRate;
    trace::TrackId _traceTrack;
};

} // namespace gasnub::mem

#endif // GASNUB_MEM_DRAM_HH
