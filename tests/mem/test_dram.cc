/**
 * @file
 * Unit tests for the banked page-mode DRAM model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/dram.hh"

namespace {

using namespace gasnub;
using namespace gasnub::mem;

DramConfig
basicConfig()
{
    DramConfig c;
    c.name = "dram";
    c.banks = 4;
    c.interleaveBytes = 64;
    c.rowBytes = 1024;
    c.rowHitNs = 50;
    c.rowMissNs = 150;
    c.bankBusyNs = 30;
    c.busMBs = 640; // 64 B in 100 ns
    return c;
}

TEST(Dram, BankMappingInterleaves)
{
    Dram d(basicConfig());
    EXPECT_EQ(d.bankOf(0), 0u);
    EXPECT_EQ(d.bankOf(64), 1u);
    EXPECT_EQ(d.bankOf(128), 2u);
    EXPECT_EQ(d.bankOf(192), 3u);
    EXPECT_EQ(d.bankOf(256), 0u);
}

TEST(Dram, RowsSpanInterleavedChunks)
{
    Dram d(basicConfig());
    // Within one bank, the row changes every rowBytes of *bank-local*
    // address space = rowBytes * banks of global space.
    EXPECT_EQ(d.rowOf(0), d.rowOf(64 * 4)); // same bank 0 chunk run
    EXPECT_NE(d.rowOf(0), d.rowOf(1024ull * 4));
}

TEST(Dram, FirstAccessMissesRowSecondHits)
{
    Dram d(basicConfig());
    auto r1 = d.access(0, AccessType::Read, 0, 64);
    EXPECT_FALSE(r1.rowHit);
    // 150 ns miss + 100 ns transfer = 250 ns.
    EXPECT_EQ(r1.dataReady, 250000u);
    auto r2 = d.access(256, AccessType::Read, r1.dataReady, 64);
    EXPECT_TRUE(r2.rowHit); // same bank 0, same row
    EXPECT_EQ(d.rowHits(), 1u);
    EXPECT_EQ(d.rowMisses(), 1u);
}

TEST(Dram, DifferentBanksOverlapService)
{
    DramConfig cfg = basicConfig();
    cfg.splitTransactionChannel = true; // banks provide parallelism
    Dram d(cfg);
    auto r1 = d.access(0, AccessType::Read, 0, 64);
    auto r2 = d.access(64, AccessType::Read, 0, 64); // bank 1
    // Bank 1 can start immediately; only the data phase serializes.
    EXPECT_EQ(r2.start, r1.start);
    EXPECT_GT(r2.dataReady, r1.dataReady);
    EXPECT_EQ(d.bankConflicts(), 0u);

    // On a single-ported node memory (non-split channel) the second
    // access queues behind the whole first access instead.
    Dram e(basicConfig());
    auto q1 = e.access(0, AccessType::Read, 0, 64);
    auto q2 = e.access(64, AccessType::Read, 0, 64);
    EXPECT_EQ(q2.start, q1.dataReady);
}

TEST(Dram, SameBankConflictDelaysSecondAccess)
{
    DramConfig cfg = basicConfig();
    cfg.splitTransactionChannel = true;
    Dram d(cfg);
    d.access(0, AccessType::Read, 0, 64);
    auto r2 = d.access(256, AccessType::Read, 0, 64); // bank 0 again
    EXPECT_GT(r2.start, 0u);
    EXPECT_EQ(d.bankConflicts(), 1u);
}

TEST(Dram, WriteRecoveryLongerThanReadWhenConfigured)
{
    DramConfig cfg = basicConfig();
    cfg.splitTransactionChannel = true; // isolate the bank timing
    cfg.bankBusyNs = 0;
    cfg.writeBusyNs = 200;
    Dram d(cfg);
    d.access(0, AccessType::Write, 0, 8);
    auto r2 = d.access(256, AccessType::Write, 0, 8); // same bank
    // Write recovery keeps the bank busy: 150 (miss) + 200 busy.
    EXPECT_GE(r2.start, 350000u);

    Dram e(cfg);
    e.access(0, AccessType::Read, 0, 8);
    auto r3 = e.access(256, AccessType::Read, 0, 8);
    // Reads have no recovery here: bank free after 150 ns service.
    EXPECT_EQ(r3.start, 150000u);
}

TEST(Dram, StripedAccessSkipsBankSerialization)
{
    DramConfig cfg = basicConfig();
    cfg.banks = 2;
    cfg.interleaveBytes = 8; // word interleave: stripe span = 16 B
    Dram d(cfg);
    auto r1 = d.access(0, AccessType::Read, 0, 64);
    auto r2 = d.access(64, AccessType::Read, 0, 64);
    // Striped accesses are row hits and serialize only on the channel.
    EXPECT_TRUE(r1.rowHit);
    EXPECT_TRUE(r2.rowHit);
    EXPECT_EQ(d.bankConflicts(), 0u);
}

TEST(Dram, ResetForgetsRowsAndTiming)
{
    Dram d(basicConfig());
    d.access(0, AccessType::Read, 0, 64);
    d.reset();
    auto r = d.access(0, AccessType::Read, 0, 64);
    EXPECT_FALSE(r.rowHit);
    EXPECT_EQ(r.start, 0u);
}

TEST(Dram, ChannelBandwidthBoundsBackToBackTransfers)
{
    Dram d(basicConfig());
    // Stream over all banks with row hits; steady interval must be
    // service + transfer (non-split channel).
    Tick prev = 0;
    Tick interval = 0;
    for (int i = 0; i < 50; ++i) {
        auto r = d.access(static_cast<Addr>(i) * 64 % (4 * 64),
                          AccessType::Read, 0, 64);
        if (i > 10)
            interval = r.dataReady - prev;
        prev = r.dataReady;
    }
    // 50 ns row hit + 100 ns transfer.
    EXPECT_EQ(interval, 150000u);
}

} // namespace
