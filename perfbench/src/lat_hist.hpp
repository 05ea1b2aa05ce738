// Latency histogram for the benchmark's own timings: 128 linear sub-buckets
// per power of two (relative bucket width under 0.8%), with quantiles
// interpolated inside the bucket by rank, so a percentile moves smoothly
// with the data instead of snapping to bucket bounds. One instance is
// written by one thread; merge after the threads join.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "causalmem/obs/histogram.hpp"

namespace perfbench {

class LatHist {
 public:
  LatHist() : counts_(kBuckets, 0) {}

  void record(std::uint64_t ns) noexcept {
    ++counts_[index(std::min(ns, kMaxValue))];
    ++count_;
  }

  void merge(const LatHist& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Quantile q in [0, 1] in nanoseconds; 0 when empty.
  [[nodiscard]] double quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0) continue;
      if (rank < static_cast<double>(before + c)) {
        const double frac = (rank - static_cast<double>(before) + 0.5) /
                            static_cast<double>(c);
        return static_cast<double>(lower(i)) +
               frac * static_cast<double>(width(i));
      }
      before += c;
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

  [[nodiscard]] double quantile_us(double q) const {
    return quantile_ns(q) / 1000.0;
  }

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr unsigned kMaxExp = 40;  // ~18 minutes in ns
  static constexpr std::uint64_t kMaxValue = (std::uint64_t{1} << kMaxExp) - 1;
  static constexpr std::size_t kBuckets = kSub + (kMaxExp - kSubBits) * kSub;

  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
    const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
    return static_cast<std::size_t>(kSub + (e - kSubBits) * kSub + sub);
  }
  static std::uint64_t lower(std::size_t i) noexcept {
    if (i < kSub) return i;
    const std::size_t k = i - kSub;
    const std::size_t shift = k / kSub;
    return (kSub + k % kSub) << shift;
  }
  static std::uint64_t width(std::size_t i) noexcept {
    return i < kSub ? 1 : std::uint64_t{1} << ((i - kSub) / kSub);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_{0};
};

/// Quantile (q in [0, 1], microseconds) of one of the program's own
/// log-bucketed histograms, interpolated by rank inside the bucket.
inline double snapshot_quantile_us(const causalmem::obs::HistogramSnapshot& h,
                                   double q) {
  using causalmem::obs::HistogramSnapshot;
  if (h.count == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(h.count - 1);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < HistogramSnapshot::kBucketCount; ++i) {
    const std::uint64_t c = h.buckets[i];
    if (c == 0) continue;
    if (rank < static_cast<double>(before + c)) {
      const double lo = static_cast<double>(HistogramSnapshot::bucket_lower(i));
      const double hi =
          static_cast<double>(HistogramSnapshot::bucket_upper(i)) + 1.0;
      const double frac =
          (rank - static_cast<double>(before) + 0.5) / static_cast<double>(c);
      return (lo + frac * (hi - lo)) / 1000.0;
    }
    before += c;
  }
  return static_cast<double>(h.max) / 1000.0;
}

}  // namespace perfbench
