// Log-structured per-process file (§II-B1).
//
// Each log has a fixed allocated capacity, formatted as equal-size chunks.
// Data is appended sequentially inside the current chunk; when a chunk
// fills, the next one comes off the free-chunk stack: the most recently
// freed chunk first (LIFO), else the lowest never-used id. Freeing an
// extent decrements its chunks' live-byte counts and pushes fully-freed
// chunks back for reuse. Per-chunk state exists only up to the highest
// chunk ever opened, so reserved capacity costs nothing until it is used.
//
// Addresses returned by Append are *physical addresses within this log*
// (chunk_id * chunk_size + offset); placement::VirtualAddress turns them
// into layer-qualified virtual addresses.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/status.hpp"
#include "src/common/units.hpp"

namespace uvs::storage {

/// A contiguous byte range inside one log.
struct Extent {
  Bytes addr = 0;
  Bytes len = 0;

  Bytes end() const { return addr + len; }
  friend bool operator==(const Extent&, const Extent&) = default;
};

/// Whole chunks of backing space shared by many logs: each keeps its own
/// (virtual) capacity for VA purposes, but opening a chunk claims one here.
struct ChunkBudget {
  Bytes total = 0;
  Bytes consumed = 0;
};

class LogFile {
 public:
  /// `capacity` is rounded down to a whole number of chunks (at least one
  /// chunk; pass capacity >= chunk_size). `budget` (optional, borrowed)
  /// gates physical chunk allocation; without it the log is self-backed.
  LogFile(Bytes capacity, Bytes chunk_size, ChunkBudget* budget = nullptr);

  Bytes capacity() const { return chunk_size_ * chunk_count_; }
  Bytes chunk_size() const { return chunk_size_; }
  std::uint32_t chunk_count() const { return chunk_count_; }

  /// Live (not yet freed) bytes.
  Bytes used() const { return used_; }
  /// Bytes still appendable (free chunks plus the tail of the current one).
  Bytes appendable() const;

  /// Appends up to `len` bytes, consuming whole chunks as needed. Returns
  /// the extents written, possibly covering fewer than `len` bytes if the
  /// log runs out of space (the caller cascades the remainder to the next
  /// storage layer). Extents within one call are chunk-aligned pieces.
  std::vector<Extent> AppendUpTo(Bytes len);

  /// Marks an extent's bytes dead; fully-dead chunks return to the free
  /// stack for reuse. The extent must lie within previously appended space.
  Status Free(const Extent& extent);

 private:
  Bytes chunk_size_;
  std::uint32_t chunk_count_;
  ChunkBudget* budget_;
  std::uint32_t next_fresh_ = 0;        // lowest never-opened chunk id
  std::vector<std::uint32_t> freed_;    // recycled chunk ids, newest last
  // Current append chunk: id and fill level; -1 when none is open.
  std::int64_t open_chunk_ = -1;
  Bytes open_fill_ = 0;
  std::vector<Bytes> live_bytes_;  // per chunk below next_fresh_
  Bytes used_ = 0;
};

}  // namespace uvs::storage
