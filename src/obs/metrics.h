#ifndef MOTSIM_OBS_METRICS_H
#define MOTSIM_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace motsim::obs {

/// Shard count of a Counter. Each thread hashes to one shard, so
/// concurrent increments from the fault-sharded driver's workers
/// mostly touch distinct cache lines; value() sums all shards.
inline constexpr std::size_t kCounterShards = 16;

/// Index of the calling thread's counter shard (stable per thread,
/// assigned round-robin on first use).
std::size_t this_thread_shard() noexcept;

/// Monotonically increasing integer metric. Thread-safe: add() is one
/// relaxed atomic add on a thread-local shard; value() sums the
/// shards (a point-in-time read, exact once all writers are
/// quiescent — the snapshot contract of MetricsRegistry).
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    shards_[this_thread_shard()].v.fetch_add(delta,
                                             std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kCounterShards> shards_;
};

/// Point-in-time double metric with set / add / update_max semantics
/// (seconds, node counts, ratios). All operations are atomic.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }

  void add(double delta) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }

  /// Raises the gauge to `v` if it is below (peak tracking across the
  /// parallel driver's shards).
  void update_max(double v) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-boundary histogram. `bounds` are inclusive upper bucket
/// limits (Prometheus `le` semantics); one overflow bucket is
/// implied. observe() is a pair of relaxed atomic adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Largest observed value; -infinity before the first observation.
  [[nodiscard]] double max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Estimated q-quantile (0 <= q <= 1) of the observed values — see
  /// histogram_quantile() for the estimation contract — clamped to
  /// max(), so an estimate never exceeds what was observed.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Estimated q-quantile (0 <= q <= 1) of a bucketed distribution:
/// `buckets` holds per-bucket (non-cumulative) counts, one entry more
/// than `bounds` (the overflow bucket). The estimate interpolates
/// linearly inside the selected bucket — the same contract as
/// Prometheus's histogram_quantile(), so served metrics and local
/// summaries agree. An observation landing in the overflow bucket is
/// reported as the highest finite bound. Degenerate inputs all have
/// defined results: an empty histogram (or empty bucket vector)
/// reports 0, q is clamped into [0, 1], a NaN q reports 0, and a
/// bucket vector shorter than bounds.size() + 1 clamps to the highest
/// finite bound instead of reading past the end.
[[nodiscard]] double histogram_quantile(const std::vector<double>& bounds,
                                        const std::vector<std::uint64_t>& buckets,
                                        double q);

/// Exact q-quantile (0 <= q <= 1) of raw observations by the
/// nearest-rank rule: the smallest observation with at least q * n
/// observations at or below it. Unlike histogram_quantile() it never
/// interpolates, so it is always an observed value and never above
/// the maximum. An empty sample and a NaN q report 0; q is clamped
/// into [0, 1].
[[nodiscard]] double exact_quantile(std::vector<double> values, double q);

/// One histogram in a snapshot, with cumulative Prometheus-style
/// bucket counts resolved to plain numbers.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1, last = +inf
  std::uint64_t count = 0;
  double sum = 0;
  /// Largest observed value; -infinity when unknown (no clamping).
  double max = -std::numeric_limits<double>::infinity();

  /// histogram_quantile() over this snapshot's buckets, clamped to
  /// `max` like Histogram::quantile.
  [[nodiscard]] double quantile(double q) const;
};

/// Point-in-time copy of every registered instrument, ordered by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// One JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"bounds":[...],"buckets":[...],...}}}.
  /// Metric ids are JSON-escaped, so any id renders valid JSON.
  [[nodiscard]] std::string to_json() const;
  /// to_json() on a single line (no newlines) — one JSONL record, used
  /// by /debug/state dumps and the state-dump files.
  [[nodiscard]] std::string to_json_line() const;
  /// Prometheus text exposition format (dots in names become
  /// underscores; histograms expand to _bucket/_sum/_count).
  [[nodiscard]] std::string to_prometheus() const;
};

/// Named instrument registry — the metric surface of a Telemetry
/// context (docs/OBSERVABILITY.md catalogues the stable dotted ids).
///
/// counter()/gauge()/histogram() create on first use and return a
/// reference that stays valid for the registry's lifetime, so engines
/// resolve each name once and then update lock-free; only creation
/// and snapshot() take the registry mutex.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// `bounds` applies on first creation; later calls with the same
  /// name return the existing histogram unchanged.
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> bounds);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace motsim::obs

#endif  // MOTSIM_OBS_METRICS_H
