#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "util/strings.h"

namespace motsim::obs {

std::size_t this_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  // Renderers assume ascending bounds; silently sorting beats a
  // throwing constructor in an observability layer.
  std::sort(bounds_.begin(), bounds_.end());
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  double seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

namespace {

/// An estimate clamped to the largest observation; -infinity (nothing
/// observed, or unknown) leaves it alone.
double clamp_to_max(double estimate, double max) {
  if (max == -std::numeric_limits<double>::infinity()) return estimate;
  return std::min(estimate, max);
}

}  // namespace

double Histogram::quantile(double q) const {
  return clamp_to_max(histogram_quantile(bounds_, bucket_counts(), q), max());
}

double HistogramSnapshot::quantile(double q) const {
  return clamp_to_max(histogram_quantile(bounds, buckets, q), max);
}

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& buckets,
                          double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  // Defined results instead of bucket math on degenerate inputs: an
  // empty histogram (or an empty bucket vector) has no observations to
  // rank, and a NaN quantile selects nothing.
  if (total == 0 || bounds.empty() || buckets.empty()) return 0.0;
  if (std::isnan(q)) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation (1-based), then the first bucket
  // whose cumulative count reaches it.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  std::size_t bucket = 0;
  for (; bucket < buckets.size(); ++bucket) {
    cumulative += buckets[bucket];
    if (static_cast<double>(cumulative) >= rank) break;
  }
  // A caller may pass fewer buckets than bounds + 1 (a truncated
  // snapshot); once the scan walks off the end there is nothing left
  // to interpolate inside — clamp like the overflow bucket.
  if (bucket >= buckets.size()) return bounds.back();
  if (bucket >= bounds.size()) {
    // Overflow bucket: no upper limit to interpolate toward — report
    // the highest finite bound (Prometheus does the same).
    return bounds.back();
  }
  const double upper = bounds[bucket];
  // Lower edge: the previous bound, or 0 for the first bucket when its
  // bound is positive (latency-style histograms start at 0).
  const double lower =
      bucket == 0 ? std::min(0.0, upper) : bounds[bucket - 1];
  const std::uint64_t in_bucket = buckets[bucket];
  if (in_bucket == 0) return upper;
  const double below = static_cast<double>(cumulative - in_bucket);
  const double fraction = (rank - below) / static_cast<double>(in_bucket);
  return lower + (upper - lower) * std::min(1.0, std::max(0.0, fraction));
}

double exact_quantile(std::vector<double> values, double q) {
  if (values.empty() || std::isnan(q)) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // 1-based nearest rank ceil(q * n), at least 1.
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    s.counters.emplace_back(name, c->value());
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    s.gauges.emplace_back(name, g->value());
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = h->bounds();
    hs.buckets = h->bucket_counts();
    hs.count = h->count();
    hs.sum = h->sum();
    hs.max = h->max();
    s.histograms.push_back(std::move(hs));
  }
  return s;
}

namespace {

/// JSON number formatting: finite doubles with enough precision to
/// round-trip; non-finite values (JSON has none) become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
/// ids map dots (and any other byte) to underscores.
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string prometheus_bound(double v) {
  if (std::isinf(v)) return "+Inf";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", v);
  return buffer;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  // Ids are escaped on the way out: the catalogue's dotted names pass
  // through unchanged, but a hostile or buggy id with a quote or
  // backslash must still render valid JSON (pinned by test_obs).
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \""
       << json_escape(counters[i].first) << "\": " << counters[i].second;
  }
  os << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \""
       << json_escape(gauges[i].first) << "\": "
       << json_number(gauges[i].second);
  }
  os << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    os << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(h.name)
       << "\": {\"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      os << (b == 0 ? "" : ", ") << json_number(h.bounds[b]);
    }
    os << "], \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      os << (b == 0 ? "" : ", ") << h.buckets[b];
    }
    os << "], \"count\": " << h.count << ", \"sum\": " << json_number(h.sum)
       << ", \"p50\": " << json_number(h.quantile(0.50))
       << ", \"p90\": " << json_number(h.quantile(0.90))
       << ", \"p99\": " << json_number(h.quantile(0.99)) << "}";
  }
  os << (histograms.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string MetricsSnapshot::to_json_line() const {
  // The pretty renderer's newlines all sit between tokens (string
  // values are escaped above), so removing them — and the trailing
  // indentation they introduce — yields the same JSON on one line, fit
  // for JSONL streams (/debug/state, the sampler).
  const std::string pretty = to_json();
  std::string out;
  out.reserve(pretty.size());
  for (const char c : pretty) {
    if (c != '\n') out.push_back(c);
  }
  return out;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    const std::string p = prometheus_name(name);
    os << "# TYPE " << p << " counter\n" << p << " " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string p = prometheus_name(name);
    os << "# TYPE " << p << " gauge\n" << p << " " << json_number(value)
       << "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string p = prometheus_name(h.name);
    os << "# TYPE " << p << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      const double bound = b < h.bounds.size()
                               ? h.bounds[b]
                               : std::numeric_limits<double>::infinity();
      os << p << "_bucket{le=\"" << prometheus_bound(bound)
         << "\"} " << cumulative << "\n";
    }
    os << p << "_sum " << json_number(h.sum) << "\n"
       << p << "_count " << h.count << "\n";
  }
  return os.str();
}

}  // namespace motsim::obs
