// Tests for the log-structured store: chunk allocation order, append cascade,
// chunk recycling (§II-B1).
#include <gtest/gtest.h>

#include <numeric>

#include "src/common/rng.hpp"
#include "src/storage/layer_store.hpp"
#include "src/storage/log_file.hpp"

namespace uvs::storage {
namespace {

// Chunk ids: the most recently freed first (LIFO), else the lowest
// never-used id — the order §II-B1's free-chunk stack gives when it starts
// holding every id with the lowest on top.
Bytes FirstAddr(LogFile& log, Bytes len) { return log.AppendUpTo(len).at(0).addr; }

TEST(LogFile, FreshChunksOpenInAscendingOrder) {
  LogFile log(/*capacity=*/4 * 256, /*chunk_size=*/256);
  for (Bytes chunk = 0; chunk < 4; ++chunk) EXPECT_EQ(FirstAddr(log, 256), chunk * 256);
}

TEST(LogFile, FreedChunksComeBackLifoBeforeFreshOnes) {
  LogFile log(4 * 256, 256);
  (void)log.AppendUpTo(3 * 256);  // chunks 0, 1, 2
  ASSERT_TRUE(log.Free(Extent{0, 256}).ok());
  ASSERT_TRUE(log.Free(Extent{2 * 256, 256}).ok());
  EXPECT_EQ(FirstAddr(log, 256), 2u * 256) << "most recently freed chunk first";
  EXPECT_EQ(FirstAddr(log, 256), 0u);
  EXPECT_EQ(FirstAddr(log, 256), 3u * 256) << "then the next never-used chunk";
}

TEST(LogFile, FreeAtOrPastTheHighWaterChunkIsADoubleFree) {
  LogFile log(4 * 256, 256);
  (void)log.AppendUpTo(256);  // only chunk 0 opened
  for (const Extent& never_written : {Extent{256, 10}, Extent{3 * 256, 256}, Extent{200, 100}}) {
    const Status status = log.Free(never_written);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(status.message(), "double free in chunk");
  }
}

TEST(LogFile, RunningOutOfRecycledChunksReturnsPartialThenEmpty) {
  LogFile log(2 * 256, 256);
  (void)log.AppendUpTo(2 * 256);  // every chunk opened
  ASSERT_TRUE(log.Free(Extent{0, 256}).ok());
  EXPECT_EQ(log.appendable(), 256u);
  EXPECT_EQ(log.AppendUpTo(3 * 256), (std::vector<Extent>{{0, 256}}));
  EXPECT_TRUE(log.AppendUpTo(1).empty());
  EXPECT_EQ(log.appendable(), 0u);
}

TEST(LogFile, AppendWithinOneChunk) {
  LogFile log(/*capacity=*/1024, /*chunk_size=*/256);
  auto extents = log.AppendUpTo(100);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (Extent{0, 100}));
  EXPECT_EQ(log.used(), 100u);
  EXPECT_EQ(log.appendable(), 1024u - 100u);
}

TEST(LogFile, SequentialAppendsAreContiguous) {
  LogFile log(1024, 256);
  auto first = log.AppendUpTo(100);
  auto second = log.AppendUpTo(100);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].addr, first[0].end());
}

TEST(LogFile, AppendSpanningChunksMergesContiguousPieces) {
  LogFile log(1024, 256);
  // Chunks pop in order 0,1,2,3 => physically contiguous => one extent.
  auto extents = log.AppendUpTo(600);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (Extent{0, 600}));
}

TEST(LogFile, AppendBeyondCapacityReturnsPartial) {
  LogFile log(512, 256);
  auto extents = log.AppendUpTo(1000);
  Bytes total = 0;
  for (const auto& e : extents) total += e.len;
  EXPECT_EQ(total, 512u);
  EXPECT_EQ(log.appendable(), 0u);
  EXPECT_TRUE(log.AppendUpTo(1).empty());
}

TEST(LogFile, FreeRecyclesWholeChunk) {
  LogFile log(512, 256);
  auto extents = log.AppendUpTo(256);
  ASSERT_EQ(log.used(), 256u);
  ASSERT_TRUE(log.Free(extents[0]).ok());
  EXPECT_EQ(log.used(), 0u);
  EXPECT_EQ(log.appendable(), 512u);
  // Recycled chunk is reused (LIFO): next append lands on chunk 0 again.
  auto again = log.AppendUpTo(700);
  Bytes total = 0;
  for (const auto& e : again) total += e.len;
  EXPECT_EQ(total, 512u);
}

TEST(LogFile, PartialFreeKeepsChunkBusy) {
  LogFile log(512, 256);
  (void)log.AppendUpTo(256);
  ASSERT_TRUE(log.Free(Extent{0, 100}).ok());
  EXPECT_EQ(log.used(), 156u);
  // Chunk 0 still has live bytes; appendable space unchanged beyond the
  // second chunk.
  EXPECT_EQ(log.appendable(), 256u);
}

TEST(LogFile, DoubleFreeRejected) {
  LogFile log(512, 256);
  (void)log.AppendUpTo(256);
  ASSERT_TRUE(log.Free(Extent{0, 256}).ok());
  EXPECT_FALSE(log.Free(Extent{0, 256}).ok());
}

TEST(LogFile, FreeBeyondCapacityRejected) {
  LogFile log(512, 256);
  EXPECT_EQ(log.Free(Extent{400, 200}).code(), StatusCode::kOutOfRange);
}

TEST(LogFile, CapacityRoundsDownToChunks) {
  LogFile log(700, 256);
  EXPECT_EQ(log.capacity(), 512u);
  EXPECT_EQ(log.chunk_count(), 2u);
}

// Property: under random append/free traffic, used() == sum of live extents
// and appendable() + "dead space in open chunk" covers the rest.
class LogFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LogFuzz, AccountingInvariantsHold) {
  Rng rng(GetParam());
  LogFile log(64 * 1024, 1024);
  std::vector<Extent> live;
  Bytes live_bytes = 0;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.NextDouble() < 0.6) {
      const Bytes want = 1 + rng.NextBelow(3000);
      auto extents = log.AppendUpTo(want);
      for (const auto& e : extents) {
        live.push_back(e);
        live_bytes += e.len;
      }
    } else {
      const auto idx = static_cast<std::size_t>(rng.NextBelow(live.size()));
      ASSERT_TRUE(log.Free(live[idx]).ok());
      live_bytes -= live[idx].len;
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(log.used(), live_bytes);
    ASSERT_LE(log.used() + log.appendable(), log.capacity() + log.chunk_size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogFuzz, ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

TEST(LayerStore, OpenLogGrantsVirtualCapacity) {
  LayerStore store(hw::Layer::kDram, 10 * 1024, 1024);
  LogFile* log = store.OpenLog(LogKey{1, 0}, 4 * 1024);
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->capacity(), 4u * 1024);
  // Like mmap: nothing is consumed until data is appended.
  EXPECT_EQ(store.used(), 0u);
  EXPECT_EQ(store.available(), 10u * 1024);
}

TEST(LayerStore, AppendsConsumeWholeChunks) {
  LayerStore store(hw::Layer::kDram, 10 * 1024, 1024);
  LogFile* log = store.OpenLog(LogKey{1, 0}, 4 * 1024);
  (void)log->AppendUpTo(100);
  EXPECT_EQ(store.used(), 1024u) << "chunk-granular accounting";
  (void)log->AppendUpTo(1000);
  EXPECT_EQ(store.used(), 2u * 1024);
}

TEST(LayerStore, OpenLogIsIdempotentPerKey) {
  LayerStore store(hw::Layer::kDram, 10 * 1024, 1024);
  LogFile* a = store.OpenLog(LogKey{1, 0}, 4 * 1024);
  LogFile* b = store.OpenLog(LogKey{1, 0}, 4 * 1024);
  EXPECT_EQ(a, b);
}

TEST(LayerStore, LogsShareThePhysicalBudget) {
  LayerStore store(hw::Layer::kDram, 4 * 1024, 1024);
  LogFile* a = store.OpenLog(LogKey{1, 0}, 4 * 1024);
  LogFile* b = store.OpenLog(LogKey{1, 1}, 4 * 1024);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // a fills 3 chunks; b can then only back one more despite its 4-chunk
  // virtual capacity.
  Bytes a_got = 0;
  for (const auto& e : a->AppendUpTo(3 * 1024)) a_got += e.len;
  EXPECT_EQ(a_got, 3u * 1024);
  Bytes b_got = 0;
  for (const auto& e : b->AppendUpTo(4 * 1024)) b_got += e.len;
  EXPECT_EQ(b_got, 1024u) << "layer exhausted after one chunk";
  EXPECT_EQ(store.available(), 0u);
}

TEST(LayerStore, FreeReturnsChunksToTheStore) {
  LayerStore store(hw::Layer::kDram, 2 * 1024, 1024);
  LogFile* a = store.OpenLog(LogKey{1, 0}, 2 * 1024);
  auto extents = a->AppendUpTo(2 * 1024);
  EXPECT_EQ(store.available(), 0u);
  for (const auto& e : extents) ASSERT_TRUE(a->Free(e).ok());
  EXPECT_EQ(store.available(), 2u * 1024);
  // Another log can now claim the space.
  LogFile* b = store.OpenLog(LogKey{1, 1}, 2 * 1024);
  Bytes b_got = 0;
  for (const auto& e : b->AppendUpTo(2 * 1024)) b_got += e.len;
  EXPECT_EQ(b_got, 2u * 1024);
}

TEST(LayerStore, TooSmallCapacityRejected) {
  LayerStore store(hw::Layer::kDram, 4 * 1024, 1024);
  EXPECT_EQ(store.OpenLog(LogKey{1, 0}, 100), nullptr) << "below one chunk";
}

TEST(LayerStore, DifferentFilesGetDifferentLogs) {
  LayerStore store(hw::Layer::kDram, 10 * 1024, 1024);
  EXPECT_NE(store.OpenLog(LogKey{1, 0}, 1024), store.OpenLog(LogKey{2, 0}, 1024));
}

}  // namespace
}  // namespace uvs::storage
