#include "src/storage/layer_store.hpp"

#include <cassert>

namespace uvs::storage {

LayerStore::LayerStore(hw::Layer layer, Bytes capacity, Bytes chunk_size)
    : layer_(layer), chunk_size_(chunk_size), budget_{capacity / chunk_size} {
  assert(chunk_size > 0);
}

LogFile* LayerStore::OpenLog(const LogKey& key, Bytes capacity) {
  if (auto it = logs_.find(key); it != logs_.end()) return it->second.get();
  if (capacity < chunk_size_) return nullptr;  // cannot hold even one chunk
  auto [it, inserted] =
      logs_.emplace(key, std::make_unique<LogFile>(capacity, chunk_size_, &budget_));
  assert(inserted);
  return it->second.get();
}

}  // namespace uvs::storage
