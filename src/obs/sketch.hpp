// Mergeable relative-error quantile sketch (DDSketch-style).
//
// Replaces unbounded exact sample vectors on the always-on telemetry path:
// positive values land in logarithmic buckets sized so every quantile
// estimate is within kRelativeError of the exact nearest-rank value on
// the same samples (the convention of cluster::Quantile, which the
// property tests compare against). Memory is bounded twice over — bucket
// width grows geometrically, and when the bucket count exceeds
// kMaxBuckets the lowest buckets collapse pairwise, trading accuracy at
// the *low* quantiles for an intact tail (p90/p99 are what SLOs watch).
//
// Sketches merge losslessly bucket-by-bucket (`Merge`), which is how
// per-tenant sketches roll up into cluster-wide distributions. Everything
// is deterministic: same Add/Merge sequence, same buckets, same JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace uvs::obs {

class QuantileSketch {
 public:
  /// Accuracy: quantile estimates within 2% of the exact value.
  static constexpr double kRelativeError = 0.02;
  static constexpr std::size_t kMaxBuckets = 1024;

  void Add(double x);
  /// Folds `other` into this sketch.
  void Merge(const QuantileSketch& other);

  /// Nearest-rank quantile estimate (rank = ceil(q * count), clamped),
  /// within kRelativeError of the exact value for uncollapsed buckets.
  /// Non-positive samples count toward rank and report as min(). Empty
  /// sketch -> 0.
  double Quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ != 0 ? min_ : 0.0; }
  double max() const { return count_ != 0 ? max_ : 0.0; }
  double mean() const { return count_ != 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  std::size_t bucket_count() const { return buckets_.size(); }
  /// Samples folded through a lossy low-bucket collapse (0 = full accuracy
  /// everywhere; >0 = the guarantee holds above the collapse boundary).
  std::uint64_t collapsed() const { return collapsed_; }
  /// Samples <= 0 (kept in a dedicated bucket, reported as min()).
  std::uint64_t zero_count() const { return zero_count_; }

  /// Deterministic summary object: count/min/max/mean/p50/p90/p99 plus the
  /// sketch shape (buckets, collapsed, relative_error).
  std::string ToJson() const;

 private:
  void CollapseIfNeeded();

  // Ordered map: quantile walks and exports iterate low -> high bucket,
  // making every result independent of insertion order.
  std::map<std::int32_t, std::uint64_t> buckets_;
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t collapsed_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace uvs::obs
