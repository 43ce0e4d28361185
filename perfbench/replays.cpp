#include "replays.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/meta/record_index.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/fair_share.hpp"
#include "src/sim/task.hpp"
#include "src/storage/log_file.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Sink for results the compiler must not discard.
volatile std::uint64_t g_sink = 0;

void FillAndFree(uvs::storage::LogFile& log, uvs::Bytes append, uvs::Bytes piece) {
  std::vector<uvs::storage::Extent> written;
  for (uvs::Bytes done = 0; done < append; done += piece) {
    const auto extents = log.AppendUpTo(std::min(piece, append - done));
    written.insert(written.end(), extents.begin(), extents.end());
  }
  for (const auto& extent : written)
    if (!log.Free(extent).ok()) throw std::runtime_error("log replay: Free failed");
  g_sink = g_sink + log.used();
}

uvs::sim::Task Transfer(uvs::sim::Engine& engine, uvs::sim::FairSharePool& pool, uvs::Time at,
                        uvs::Bytes bytes) {
  co_await engine.Delay(at);
  co_await pool.Transfer(bytes);
}

}  // namespace

double LogLifecycleMicros(const LogReplay& r) {
  const auto t0 = Clock::now();
  for (int w = 0; w < r.writers; ++w) {
    auto dram = std::make_unique<uvs::storage::LogFile>(r.dram_capacity, r.chunk);
    auto bb = std::make_unique<uvs::storage::LogFile>(r.bb_capacity, r.chunk);
    FillAndFree(*dram, std::min(r.append, dram->capacity()), r.piece);
    FillAndFree(*bb, std::min(r.append, bb->capacity()), r.piece);
  }
  return 1e6 * Since(t0) / r.writers;
}

MetaTimes MetaIndexNanos(const MetaReplay& r) {
  uvs::meta::RecordIndex index;
  const uvs::Bytes stride = static_cast<uvs::Bytes>(r.producers) * r.len;
  auto offset = [&](int producer, int record) {
    return static_cast<uvs::Bytes>(record) * stride + static_cast<uvs::Bytes>(producer) * r.len;
  };
  const auto t0 = Clock::now();
  for (int rec = 0; rec < r.records; ++rec)
    for (int p = 0; p < r.producers; ++p)
      index.Insert({.fid = 0,
                    .offset = offset(p, rec),
                    .len = r.len,
                    .producer = p,
                    .va = static_cast<uvs::Bytes>(rec) * r.len});
  const double insert_s = Since(t0);

  const auto t1 = Clock::now();
  std::uint64_t found = 0;
  for (int p = 0; p < r.producers; ++p)
    for (int rec = 0; rec < r.records; ++rec) {
      found += index.Query(0, offset(p, rec), r.len).size();
      found += index.CoveredBytes(0, offset(p, rec), r.len) == r.len;
    }
  const double query_s = Since(t1);
  const auto ops = static_cast<double>(r.producers) * r.records;
  if (found != 2 * static_cast<std::uint64_t>(ops))
    throw std::runtime_error("meta replay: lookups missed inserted records");
  return {1e9 * insert_s / ops, 1e9 * query_s / (2 * ops)};
}

double PoolTransferNanos(int flows, uvs::Bytes bytes, uvs::Time stagger) {
  const auto t0 = Clock::now();
  uvs::sim::Engine engine;
  uvs::sim::FairSharePool pool(engine, {.capacity = 2.6e9});
  for (int i = 0; i < flows; ++i) engine.Spawn(Transfer(engine, pool, stagger * i, bytes));
  engine.Run();
  if (pool.completed_transfers() != static_cast<std::uint64_t>(flows))
    throw std::runtime_error("pool replay: transfers left unfinished");
  return 1e9 * Since(t0) / flows;
}

double HostRefSeconds() {
  const auto t0 = Clock::now();
  std::map<std::uint64_t, std::uint64_t> map;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < (1 << 16); ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    map.emplace(x >> 20, x);
  }
  std::uint64_t sum = 0;
  for (int round = 0; round < 2; ++round)
    for (const auto& [key, value] : map) sum += map.count(key ^ 1) + value;
  while (!map.empty()) map.erase(map.begin());
  g_sink = g_sink + sum;
  return Since(t0);
}

}  // namespace perfbench
