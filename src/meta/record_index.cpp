#include "src/meta/record_index.hpp"

#include <algorithm>
#include <iterator>

namespace uvs::meta {

void RecordIndex::Insert(const MetadataRecord& record) {
  records_.insert_or_assign(Key{record.fid, record.offset}, record);
}

std::vector<MetadataRecord> RecordIndex::Query(storage::FileId fid, Bytes offset,
                                               Bytes len) const {
  std::vector<MetadataRecord> out;
  if (len == 0) return out;
  const Bytes end = offset + len;

  auto it = records_.lower_bound(Key{fid, offset});
  // A record starting before `offset` can still overlap it.
  if (it != records_.begin()) {
    const MetadataRecord& rec = std::prev(it)->second;
    if (rec.fid == fid && rec.end() > offset) {
      MetadataRecord clipped = rec;
      const Bytes skip = offset - rec.offset;
      clipped.offset = offset;
      clipped.va += skip;
      clipped.len = std::min(rec.len - skip, len);
      out.push_back(clipped);
    }
  }
  for (; it != records_.end() && it->first < Key{fid, end}; ++it) {
    MetadataRecord clipped = it->second;
    if (clipped.end() > end) clipped.len = end - clipped.offset;
    out.push_back(clipped);
  }
  return out;
}

Bytes RecordIndex::CoveredBytes(storage::FileId fid, Bytes offset, Bytes len) const {
  Bytes covered = 0;
  for (const auto& rec : Query(fid, offset, len)) covered += rec.len;
  return covered;
}

std::vector<MetadataRecord> RecordIndex::All() const {
  std::vector<MetadataRecord> out;
  out.reserve(records_.size());
  for (const auto& [key, rec] : records_) out.push_back(rec);
  return out;
}

void RecordIndex::Clear() { records_.clear(); }

}  // namespace uvs::meta
