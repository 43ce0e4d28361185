// Erasure-coded PFS battery (docs/FAULTS.md):
//  * byte-level Reed-Solomon codec: encode/decode round trips over a k+m
//    grid, reconstruct-vs-original equality for every failure count <= m,
//    refusal beyond the parity budget;
//  * Pfs EC model: RMW cycles for every partial-stripe offset/length
//    class, degraded reads while failures stay within budget, rebuild
//    restoring redundancy, scrub repairing latent errors;
//  * the crash-point sweep: halt a reference run at EVERY event index,
//    scrub, and require parity consistency and zero lost bytes while no
//    stripe ever exceeded its m-shard budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/hw/cluster.hpp"
#include "src/sim/engine.hpp"
#include "src/storage/erasure.hpp"
#include "src/storage/pfs.hpp"

namespace uvs::storage {
namespace {

// --- Byte-level codec. ----------------------------------------------------

std::vector<std::vector<std::uint8_t>> RandomShards(Rng& rng, int k, int m,
                                                    std::size_t shard_len) {
  std::vector<std::vector<std::uint8_t>> shards(static_cast<std::size_t>(k + m));
  for (auto& shard : shards) {
    shard.resize(shard_len);
    for (auto& byte : shard) byte = static_cast<std::uint8_t>(rng.NextBelow(256));
  }
  return shards;
}

TEST(ErasureCodec, RoundTripsEveryFailureCountOverKmGrid) {
  constexpr int kGrid[][2] = {{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {6, 4}, {8, 3}, {10, 4}};
  Rng rng(0xec0dec);
  for (const auto& km : kGrid) {
    const int k = km[0], m = km[1];
    const ErasureCodec codec(k, m);
    auto shards = RandomShards(rng, k, m, 64);
    codec.EncodeParity(shards);
    ASSERT_TRUE(codec.VerifyParity(shards)) << k << "+" << m;
    const auto original = shards;

    for (int failures = 1; failures <= m; ++failures) {
      // Knock out `failures` distinct shards, mixing data and parity.
      std::vector<bool> present(static_cast<std::size_t>(k + m), true);
      int killed = 0;
      while (killed < failures) {
        const auto victim = rng.NextBelow(static_cast<std::uint64_t>(k + m));
        if (!present[victim]) continue;
        present[victim] = false;
        shards[victim].assign(shards[victim].size(), 0);
        ++killed;
      }
      ASSERT_TRUE(codec.Reconstruct(shards, present).ok())
          << k << "+" << m << " with " << failures << " failures";
      EXPECT_EQ(shards, original) << k << "+" << m << " with " << failures << " failures";
    }
  }
}

TEST(ErasureCodec, RefusesReconstructionBeyondParityBudget) {
  const ErasureCodec codec(4, 2);
  Rng rng(7);
  auto shards = RandomShards(rng, 4, 2, 32);
  codec.EncodeParity(shards);
  std::vector<bool> present(6, true);
  present[0] = present[2] = present[5] = false;  // m + 1 = 3 missing
  EXPECT_FALSE(codec.Reconstruct(shards, present).ok());
}

TEST(ErasureCodec, VerifyDetectsSilentCorruptionAndReconstructRepairsIt) {
  const ErasureCodec codec(3, 2);
  Rng rng(11);
  auto shards = RandomShards(rng, 3, 2, 48);
  codec.EncodeParity(shards);
  const auto original = shards;
  shards[1][17] ^= 0x5a;  // latent flip in a data shard
  EXPECT_FALSE(codec.VerifyParity(shards));
  std::vector<bool> present(5, true);
  present[1] = false;  // scrub identified the bad shard: rebuild it
  ASSERT_TRUE(codec.Reconstruct(shards, present).ok());
  EXPECT_EQ(shards, original);
}

TEST(ErasureCodec, ParityFreeCodecVerifiesTrivially) {
  const ErasureCodec codec(4, 0);
  Rng rng(3);
  auto shards = RandomShards(rng, 4, 0, 16);
  codec.EncodeParity(shards);
  EXPECT_TRUE(codec.VerifyParity(shards));
}

// --- Pfs erasure model. ---------------------------------------------------

hw::ClusterParams EcParams(int osts = 8) {
  hw::ClusterParams params = hw::CoriPreset(64);
  params.pfs.osts = osts;
  params.pfs.bw_per_ost = 1.0_GBps;
  params.pfs.latency = 0.0;
  params.pfs.per_ost_sync_overhead = 0.0;
  return params;
}

constexpr Bytes kShard = 64_KiB;

StripeConfig EcStripeConfig(int k = 4, int m = 2) {
  return StripeConfig{
      .stripe_size = kShard, .stripe_count = k, .ost_offset = 0, .parity_shards = m};
}

sim::Task DoWrite(Pfs& pfs, Pfs::FileHandle f, Bytes offset, Bytes len,
                  Pfs::AccessOptions opts = {.layout = AccessLayout::kFilePerProcess}) {
  co_await pfs.Write(f, offset, len, 0, opts);
}

sim::Task DoRead(Pfs& pfs, Pfs::FileHandle f, Bytes offset, Bytes len,
                 Pfs::AccessOptions opts = {.layout = AccessLayout::kFilePerProcess}) {
  co_await pfs.Read(f, offset, len, 1, opts);
}

TEST(PfsEc, CreateClampsShardsToDistinctOsts) {
  sim::Engine engine;
  hw::Cluster cluster(engine, EcParams(/*osts=*/4));
  Pfs pfs(cluster);
  const auto f = pfs.Create("a", EcStripeConfig(/*k=*/6, /*m=*/3));
  const StripeConfig& s = pfs.Stripe(f);
  EXPECT_GE(s.parity_shards, 1);
  EXPECT_LE(s.stripe_count + s.parity_shards, 4);
}

TEST(PfsEc, FullStripeAlignedWriteSkipsRmwButPaysParity) {
  sim::Engine engine;
  hw::Cluster cluster(engine, EcParams());
  Pfs pfs(cluster);
  const auto f = pfs.Create("a", EcStripeConfig());
  engine.Spawn(DoWrite(pfs, f, 0, 4 * kShard));  // exactly one full stripe
  engine.Run();
  EXPECT_EQ(pfs.ec_stats().rmw_stripes, 0u);
  EXPECT_EQ(pfs.ec_stats().rmw_read_bytes, 0u);
  EXPECT_EQ(pfs.ec_stats().parity_bytes, 2 * kShard);  // m parity shards
  EXPECT_EQ(pfs.FileSize(f), 4 * kShard);
  EXPECT_EQ(pfs.VerifyParity().torn, 0u);
}

TEST(PfsEc, PartialWritesPayRmwAtEveryOffsetAndLengthClass) {
  // Offset classes: stripe-aligned, sub-shard, mid-shard, shard-aligned
  // inside the stripe, last byte of a stripe. Length classes: single byte,
  // sub-shard, exactly one shard, full stripe, multi-stripe with ragged
  // tail. Every combination must leave parity consistent, and must pay the
  // RMW cycle exactly on its partially-covered stripes.
  const Bytes offsets[] = {0, 1, kShard / 2, kShard, 3 * kShard, 4 * kShard - 1};
  const Bytes lens[] = {1, kShard / 2, kShard, 4 * kShard, 9 * kShard + 1234};
  for (const Bytes offset : offsets) {
    for (const Bytes len : lens) {
      sim::Engine engine;
      hw::Cluster cluster(engine, EcParams());
      Pfs pfs(cluster);
      const auto f = pfs.Create("a", EcStripeConfig());
      engine.Spawn(DoWrite(pfs, f, offset, len));
      engine.Run();

      const Bytes stripe_span = 4 * kShard;
      std::uint64_t expected_rmw = 0;
      for (std::uint64_t s = offset / stripe_span; s * stripe_span < offset + len; ++s) {
        const bool covered =
            offset <= s * stripe_span && (s + 1) * stripe_span <= offset + len;
        if (!covered) ++expected_rmw;
      }
      EXPECT_EQ(pfs.ec_stats().rmw_stripes, expected_rmw)
          << "offset " << offset << " len " << len;
      if (expected_rmw > 0) {
        EXPECT_GT(pfs.ec_stats().rmw_read_bytes, 0u);
      }
      EXPECT_EQ(pfs.FileSize(f), offset + len);
      EXPECT_EQ(pfs.VerifyParity().torn, 0u) << "offset " << offset << " len " << len;
      EXPECT_FALSE(pfs.ec_redundancy_exceeded());
      EXPECT_EQ(pfs.ec_lost_bytes(), 0u);
    }
  }
}

TEST(PfsEc, ConcurrentPartialWritersLeaveParityConsistent) {
  sim::Engine engine;
  hw::Cluster cluster(engine, EcParams());
  Pfs pfs(cluster);
  const auto f = pfs.Create("a", EcStripeConfig());
  // Eight overlapping sub-stripe writers hammering the same two stripes.
  for (int w = 0; w < 8; ++w) {
    const Bytes offset = static_cast<Bytes>(w) * (kShard / 2) + 100;
    engine.Spawn(DoWrite(pfs, f, offset, kShard / 2,
                         {.layout = AccessLayout::kSharedInterleaved}));
  }
  engine.Run();
  EXPECT_GT(pfs.ec_stats().rmw_stripes, 0u);
  EXPECT_EQ(pfs.VerifyParity().torn, 0u);
  EXPECT_EQ(pfs.ec_lost_bytes(), 0u);
}

TEST(PfsEc, DegradedReadsReconstructWhileFailuresStayWithinBudget) {
  sim::Engine engine;
  hw::Cluster cluster(engine, EcParams());
  Pfs pfs(cluster);
  const auto f = pfs.Create("a", EcStripeConfig());  // k=4 m=2 on OSTs 0..5
  engine.Spawn(DoWrite(pfs, f, 0, 8 * kShard));      // two full stripes
  engine.Run();

  for (int failures = 1; failures <= 2; ++failures) {
    pfs.FailOst(failures - 1);
    const std::uint64_t degraded_before = pfs.ec_stats().degraded_reads;
    engine.Spawn(DoRead(pfs, f, 0, 8 * kShard));
    engine.Run();
    EXPECT_GT(pfs.ec_stats().degraded_reads, degraded_before) << failures << " failures";
    EXPECT_FALSE(pfs.ec_redundancy_exceeded()) << failures << " failures";
    EXPECT_EQ(pfs.ec_lost_bytes(), 0u) << failures << " failures";
  }

  // A sub-shard read aimed at a dead shard pays reconstruction traffic
  // beyond the request: k survivor units against one requested unit.
  EXPECT_EQ(pfs.ec_stats().degraded_read_bytes, 0u);  // full reads: no extra
  engine.Spawn(DoRead(pfs, f, 0, 1000));              // shard 0 lives on dead OST 0
  engine.Run();
  EXPECT_EQ(pfs.ec_stats().degraded_read_bytes, 3000u);  // (k-1) extra units

  // Third failure exceeds m = 2: loss is now legitimate and flagged.
  pfs.FailOst(2);
  EXPECT_TRUE(pfs.ec_redundancy_exceeded());
  engine.Spawn(DoRead(pfs, f, 0, 8 * kShard));
  engine.Run();
  EXPECT_GT(pfs.ec_lost_bytes(), 0u);
}

TEST(PfsEc, RebuildRelocatesShardsAndRestoresRedundancy) {
  sim::Engine engine;
  hw::Cluster cluster(engine, EcParams());
  Pfs pfs(cluster);
  const auto f = pfs.Create("a", EcStripeConfig());
  engine.Spawn(DoWrite(pfs, f, 0, 8 * kShard));
  engine.Run();

  pfs.FailOst(0);
  engine.Spawn(pfs.RebuildOst(0), "rebuild");
  engine.Run();
  EXPECT_GT(pfs.ec_stats().rebuilt_bytes, 0u);
  EXPECT_EQ(pfs.VerifyParity().torn, 0u);

  // Redundancy is back: two MORE failures still lose nothing.
  pfs.FailOst(1);
  pfs.FailOst(2);
  engine.Spawn(DoRead(pfs, f, 0, 8 * kShard));
  engine.Run();
  EXPECT_FALSE(pfs.ec_redundancy_exceeded());
  EXPECT_EQ(pfs.ec_lost_bytes(), 0u);
}

TEST(PfsEc, ScrubDetectsAndRepairsLatentErrors) {
  sim::Engine engine;
  hw::Cluster cluster(engine, EcParams());
  Pfs pfs(cluster);
  const auto f = pfs.Create("a", EcStripeConfig());
  engine.Spawn(DoWrite(pfs, f, 0, 8 * kShard));
  engine.Run();

  ASSERT_TRUE(pfs.InjectLatentError(0));
  EXPECT_GT(pfs.VerifyParity().latent, 0u);

  engine.Spawn(pfs.ScrubPass(/*stripe_interval=*/0.0001), "scrub");
  engine.Run();
  EXPECT_GE(pfs.ec_stats().scrub_passes, 1u);
  EXPECT_GT(pfs.ec_stats().scrub_repairs, 0u);
  EXPECT_EQ(pfs.VerifyParity().latent, 0u);
  EXPECT_EQ(pfs.VerifyParity().torn, 0u);
}

TEST(PfsEc, LatentErrorNeedsWrittenShards) {
  sim::Engine engine;
  hw::Cluster cluster(engine, EcParams());
  Pfs pfs(cluster);
  pfs.Create("a", EcStripeConfig());
  EXPECT_FALSE(pfs.InjectLatentError(0));  // nothing written yet
}

// --- Crash-point sweep. ---------------------------------------------------
//
// One scripted reference run mixing every EC code path: sub-shard RMWs,
// overlapping writers, full-stripe writes, an OST failure + rebuild, a
// latent error, and a live scrub. The sweep then replays the identical rig
// N + 1 times, halting after 0, 1, ..., N dispatched events ("crash"),
// runs the synchronous repair scrub, and requires a consistent, lossless
// state at every single index.

struct SweepRig {
  sim::Engine engine;
  hw::Cluster cluster;
  Pfs pfs;
  Pfs::FileHandle shared;
  Pfs::FileHandle aligned;

  SweepRig()
      : cluster(engine, EcParams()),
        pfs(cluster),
        shared(pfs.Create("shared", EcStripeConfig())),
        aligned(pfs.Create("aligned", EcStripeConfig())) {
    // Overlapping sub-shard RMW writers on the shared file.
    for (int w = 0; w < 4; ++w) {
      engine.Spawn(DoWrite(pfs, shared, static_cast<Bytes>(w) * (kShard / 2) + 64,
                           kShard / 2, {.layout = AccessLayout::kSharedInterleaved}),
                   "writer");
    }
    // A multi-stripe write with ragged head and tail.
    engine.Spawn(DoWrite(pfs, shared, 3 * kShard + 11, 5 * kShard), "multi");
    // Full-stripe aligned writes on the second file.
    engine.Spawn(DoWrite(pfs, aligned, 0, 8 * kShard), "aligned");
    // Fault script: a latent error, an OST failure + rebuild, a live scrub.
    engine.Spawn(FaultScript(*this), "faults");
  }

  // Mid-run teardown: abandoned frames hold lock guards into pfs, so they
  // must unwind before pfs and cluster go away.
  ~SweepRig() { engine.Abandon(); }

  static sim::Task FaultScript(SweepRig& rig) {
    co_await rig.engine.Delay(1e-6);
    rig.pfs.InjectLatentError(1);
    co_await rig.engine.Delay(1e-6);
    rig.pfs.FailOst(2);
    rig.engine.Spawn(rig.pfs.RebuildOst(2), "rebuild");
    co_await rig.engine.Delay(1e-6);
    rig.engine.Spawn(rig.pfs.ScrubPass(1e-7), "scrub");
  }
};

TEST(PfsEcCrashSweep, ScrubRepairsEveryCrashPoint) {
  // Reference run: must end clean on its own.
  std::uint64_t total = 0;
  {
    SweepRig rig;
    rig.engine.Run();
    total = rig.engine.processed_events();
    EXPECT_EQ(rig.pfs.VerifyParity().torn, 0u);
    EXPECT_FALSE(rig.pfs.ec_redundancy_exceeded());
    EXPECT_EQ(rig.pfs.ec_lost_bytes(), 0u);
    EXPECT_GT(rig.pfs.ec_stats().rmw_stripes, 0u);
    EXPECT_GT(rig.pfs.ec_stats().rebuilt_bytes, 0u);
  }
  ASSERT_GT(total, 0u);
  ASSERT_LT(total, 5000u) << "reference run too large for the O(N^2) sweep";

  bool saw_torn_midway = false;
  for (std::uint64_t crash_at = 0; crash_at <= total; ++crash_at) {
    SweepRig rig;
    for (std::uint64_t i = 0; i < crash_at; ++i) ASSERT_TRUE(rig.engine.Step());
    if (rig.pfs.VerifyParity().torn > 0) saw_torn_midway = true;

    const Pfs::EcScrubReport repair = rig.pfs.ScrubAllNow();
    const Pfs::EcScrubReport after = rig.pfs.VerifyParity();
    ASSERT_EQ(after.torn, 0u) << "crash at event " << crash_at << " left "
                              << repair.torn << " torn stripes scrub could not repair";
    ASSERT_EQ(after.latent, 0u) << "crash at event " << crash_at;
    if (!rig.pfs.ec_redundancy_exceeded()) {
      ASSERT_EQ(rig.pfs.ec_lost_bytes(), 0u) << "crash at event " << crash_at;
      ASSERT_EQ(after.unrecoverable, 0u) << "crash at event " << crash_at;
    }
  }
  // The sweep is only meaningful if some crash points actually landed
  // between a data-shard apply and its parity apply.
  EXPECT_TRUE(saw_torn_midway);
}

}  // namespace
}  // namespace uvs::storage
