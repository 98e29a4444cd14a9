// Measurement plumbing shared by the three workloads: a stopped-clock-aware
// stopwatch, fixed-size latency histograms, per-operation failure
// accounting and the metric table a run reports.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Accumulates only the intervals the harness marks as measured, so input
/// generation between them stays off the clock.
class BusyClock {
 public:
  void start() { started_ = now_ns(); }
  /// Stops the current interval and returns its length [ns].
  std::int64_t stop() {
    const std::int64_t d = now_ns() - started_;
    total_ns_ += d;
    return d;
  }
  double seconds() const { return static_cast<double>(total_ns_) * 1e-9; }

 private:
  std::int64_t started_ = 0;
  std::int64_t total_ns_ = 0;
};

/// Log-linear latency histogram over [1 ns, 2^44 ns): 512 sub-buckets per
/// octave (0.2% relative resolution), fixed size (144 KiB), so recording
/// millions of samples costs neither allocation nor memory growth.
/// Percentiles interpolate by rank inside the bucket.
class Histogram {
 public:
  static constexpr int kSubBits = 9;
  static constexpr int kOctaves = 36;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;

  Histogram() : counts_(kOctaves * kSub, 0) {}

  void record(std::int64_t ns) {
    if (ns < 1) ns = 1;
    counts_[index(static_cast<std::uint64_t>(ns))] += 1;
    ++total_;
    sum_ += static_cast<double>(ns);
  }
  void merge(const Histogram& other) {
    for (std::size_t k = 0; k < counts_.size(); ++k) {
      counts_[k] += other.counts_[k];
    }
    total_ += other.total_;
    sum_ += other.sum_;
  }
  void reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
    sum_ = 0.0;
  }
  std::uint64_t count() const { return total_; }
  double sum_ns() const { return sum_; }

  /// Value [ns] at quantile q in [0, 1]; 0 when empty.
  double quantile_ns(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    double before = 0.0;
    for (std::size_t k = 0; k < counts_.size(); ++k) {
      const double c = static_cast<double>(counts_[k]);
      if (c == 0.0) continue;
      if (before + c > rank) {
        const auto [lo, hi] = bounds(k);
        const double frac = (rank - before + 0.5) / c;
        return lo + (hi - lo) * std::min(frac, 1.0);
      }
      before += c;
    }
    return bounds(counts_.size() - 1).second;
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int octave = msb - kSubBits + 1;
    if (octave >= kOctaves) return kOctaves * kSub - 1;
    const std::uint64_t sub = (v >> (msb - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(octave) * kSub + sub;
  }
  static std::pair<double, double> bounds(std::size_t k) {
    const std::size_t octave = k / kSub;
    const std::size_t sub = k % kSub;
    if (octave == 0) {
      return {static_cast<double>(sub), static_cast<double>(sub + 1)};
    }
    const double width = std::ldexp(1.0, static_cast<int>(octave) - 1);
    const double lo = std::ldexp(1.0, static_cast<int>(octave) + kSubBits - 1) +
                      static_cast<double>(sub) * width;
    return {lo, lo + width};
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// What a pass keeps of a latency histogram once the pass is over, so
/// the harness's own memory does not grow with the number of passes.
struct LatencySummary {
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  double sum_ns = 0.0;
  std::uint64_t count = 0;

  static LatencySummary of(const Histogram& h) {
    return {h.quantile_ns(0.50), h.quantile_ns(0.95), h.quantile_ns(0.99),
            h.sum_ns(), h.count()};
  }
  double mean_ns() const {
    return count == 0 ? 0.0 : sum_ns / static_cast<double>(count);
  }
};

/// Attempted / failed tallies per operation kind.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Ops {
  OpCount observe, update, localize, localize_batch, restore;
  std::array<std::pair<const char*, const OpCount*>, 5> rows() const {
    return {{{"observe", &observe},
             {"update", &update},
             {"localize", &localize},
             {"localize_batch", &localize_batch},
             {"restore", &restore}}};
  }
  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& [name, c] : rows()) n += c->attempted;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& [name, c] : rows()) n += c->failed;
    return n;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using MetricList = std::vector<Metric>;

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Median of a copy (mean of the two middle values for even counts).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile of a copy.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Process high-water resident set [MB] (VmHWM).
double peak_rss_mb();

}  // namespace perfbench
