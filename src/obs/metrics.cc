#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fsim {
namespace obs {

namespace {

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// `{key="value"}` or "" for unlabeled metrics; `extra` appends one more
/// label (the histogram `le`).
std::string LabelBlock(const MetricKey& key, std::string_view extra_key = {},
                       std::string_view extra_value = {}) {
  std::string out;
  const bool has_label = !key.label_key.empty();
  const bool has_extra = !extra_key.empty();
  if (!has_label && !has_extra) return out;
  out += '{';
  if (has_label) {
    out += key.label_key;
    out += "=\"";
    out += EscapeLabelValue(key.label_value);
    out += '"';
    if (has_extra) out += ',';
  }
  if (has_extra) {
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += '"';
  }
  out += '}';
  return out;
}

std::string FormatDouble(double value) {
  // The exposition format spells infinite samples +Inf and -Inf.
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

MetricKey MakeKey(std::string_view family, std::string_view label_key,
                  std::string_view label_value) {
  return MetricKey{std::string(family), std::string(label_key),
                   std::string(label_value)};
}

}  // namespace

size_t ShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based: ceil(q * count), at least 1.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  uint64_t seen = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] >= rank) {
      const double lower =
          i == 0 ? 0.0
                 : static_cast<double>(BucketUpperBound(i - 1)) + 1.0;
      const double upper = static_cast<double>(BucketUpperBound(i));
      const double within = static_cast<double>(rank - seen) /
                            static_cast<double>(counts[i]);
      const double estimate = lower + (upper - lower) * within;
      return std::min(estimate, static_cast<double>(max));
    }
    seen += counts[i];
  }
  return static_cast<double>(max);
}

HistogramSnapshot HistogramSnapshot::Delta(const HistogramSnapshot& after,
                                           const HistogramSnapshot& before) {
  HistogramSnapshot delta;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    delta.counts[i] = after.counts[i] - before.counts[i];
  }
  delta.count = after.count - before.count;
  delta.sum = after.sum - before.sum;
  // Shard maxima are cumulative, so the interval max is unknowable from
  // two snapshots; the cumulative max is the only safe upper bound.
  delta.max = after.max;
  return delta;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  for (const HistogramShard& shard : shards_) {
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      const uint64_t c = shard.counts[i].load(std::memory_order_relaxed);
      snapshot.counts[i] += c;
      snapshot.count += c;
    }
    snapshot.sum += shard.sum.load(std::memory_order_relaxed);
    snapshot.max =
        std::max(snapshot.max, shard.max.load(std::memory_order_relaxed));
  }
  return snapshot;
}

Registry& Registry::Default() {
  static Registry* registry = new Registry();  // fsim-lint: allow(naked-new)
  return *registry;
}

template <typename T>
T* Registry::Find(MetricMap<T>& metrics, const MetricKey& key) {
  for (auto& [existing, metric] : metrics) {
    if (existing.family == key.family &&
        existing.label_key == key.label_key &&
        existing.label_value == key.label_value) {
      return metric.get();
    }
  }
  return nullptr;
}

Counter* Registry::GetCounter(std::string_view family, std::string_view help,
                              std::string_view label_key,
                              std::string_view label_value) {
  const MetricKey key = MakeKey(family, label_key, label_value);
  std::lock_guard<std::mutex> lock(mu_);
  if (Counter* existing = Find(counters_, key)) return existing;
  RecordHelp(key.family, help);
  counters_.emplace_back(key, std::make_unique<Counter>());
  return counters_.back().second.get();
}

Gauge* Registry::GetGauge(std::string_view family, std::string_view help,
                          std::string_view label_key,
                          std::string_view label_value) {
  const MetricKey key = MakeKey(family, label_key, label_value);
  std::lock_guard<std::mutex> lock(mu_);
  if (Gauge* existing = Find(gauges_, key)) return existing;
  RecordHelp(key.family, help);
  gauges_.emplace_back(key, std::make_unique<Gauge>());
  return gauges_.back().second.get();
}

Histogram* Registry::GetHistogram(std::string_view family,
                                  std::string_view help, Histogram::Unit unit,
                                  std::string_view label_key,
                                  std::string_view label_value) {
  const MetricKey key = MakeKey(family, label_key, label_value);
  std::lock_guard<std::mutex> lock(mu_);
  if (Histogram* existing = Find(histograms_, key)) return existing;
  RecordHelp(key.family, help);
  histograms_.emplace_back(key, std::make_unique<Histogram>(unit));
  return histograms_.back().second.get();
}

void Registry::RegisterCallbackGauge(std::string_view family,
                                     std::string_view help, const void* owner,
                                     std::function<double()> fn,
                                     std::string_view label_key,
                                     std::string_view label_value) {
  const MetricKey key = MakeKey(family, label_key, label_value);
  std::lock_guard<std::mutex> lock(mu_);
  RecordHelp(key.family, help);
  for (auto& [existing, callback] : callbacks_) {
    if (existing.family == key.family &&
        existing.label_key == key.label_key &&
        existing.label_value == key.label_value) {
      callback.owner = owner;
      callback.fn = std::move(fn);
      return;
    }
  }
  callbacks_.emplace_back(
      key, CallbackGauge{std::string(help), owner, std::move(fn)});
}

void Registry::UnregisterCallbackGauge(std::string_view family,
                                       const void* owner,
                                       std::string_view label_key,
                                       std::string_view label_value) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(callbacks_, [&](const auto& entry) {
    return entry.first.family == family &&
           entry.first.label_key == label_key &&
           entry.first.label_value == label_value &&
           entry.second.owner == owner;
  });
}

std::vector<std::pair<std::string, uint64_t>> Registry::CounterFamilySnapshot(
    std::string_view family) const {
  std::vector<std::pair<std::string, uint64_t>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, counter] : counters_) {
      if (key.family == family) {
        out.emplace_back(key.label_value, counter->Value());
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Histogram* Registry::FindHistogram(std::string_view family,
                                   std::string_view label_value) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, histogram] : histograms_) {
    if (key.family == family && key.label_value == label_value) {
      return histogram.get();
    }
  }
  return nullptr;
}

std::vector<HistogramEntry> Registry::HistogramEntries() const {
  std::vector<HistogramEntry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, histogram] : histograms_) {
      HistogramEntry entry;
      entry.key = key;
      entry.unit = histogram->unit();
      entry.snapshot = histogram->Snapshot();
      if (entry.snapshot.count > 0) out.push_back(std::move(entry));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HistogramEntry& a, const HistogramEntry& b) {
              return a.key < b.key;
            });
  return out;
}

void Registry::RecordHelp(const std::string& family, std::string_view help) {
  for (const auto& [existing, _] : help_) {
    if (existing == family) return;
  }
  help_.emplace_back(family, std::string(help));
}

std::string Registry::RenderPrometheus() const {
  // Copy the instrument lists under the lock, render outside it (callback
  // gauges run user code that must not re-enter the registry anyway, but
  // snapshotting first keeps the lock hold time bounded).
  struct CounterRow {
    MetricKey key;
    uint64_t value;
  };
  struct GaugeRow {
    MetricKey key;
    double value;
  };
  struct HistogramRow {
    MetricKey key;
    Histogram::Unit unit;
    HistogramSnapshot snapshot;
  };
  std::vector<CounterRow> counter_rows;
  std::vector<GaugeRow> gauge_rows;
  std::vector<HistogramRow> histogram_rows;
  std::vector<std::pair<MetricKey, std::function<double()>>> callback_rows;
  std::vector<std::pair<std::string, std::string>> help;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, counter] : counters_) {
      counter_rows.push_back({key, counter->Value()});
    }
    for (const auto& [key, gauge] : gauges_) {
      gauge_rows.push_back({key, gauge->Value()});
    }
    for (const auto& [key, histogram] : histograms_) {
      histogram_rows.push_back({key, histogram->unit(),
                                histogram->Snapshot()});
    }
    for (const auto& [key, callback] : callbacks_) {
      callback_rows.emplace_back(key, callback.fn);
    }
    help = help_;
  }
  auto help_for = [&](const std::string& family) -> std::string {
    for (const auto& [name, text] : help) {
      if (name == family) return text;
    }
    return "";
  };
  auto sort_by_key = [](auto& rows) {
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
  };
  sort_by_key(counter_rows);
  sort_by_key(gauge_rows);
  sort_by_key(histogram_rows);
  std::sort(callback_rows.begin(), callback_rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::string out;
  auto header = [&](const std::string& family, const char* type) {
    out += "# HELP " + family + " " + help_for(family) + "\n";
    out += "# TYPE " + family + " " + type + "\n";
  };
  std::string last_family;

  for (const CounterRow& row : counter_rows) {
    if (row.key.family != last_family) {
      header(row.key.family, "counter");
      last_family = row.key.family;
    }
    out += row.key.family + LabelBlock(row.key) + " " +
           std::to_string(row.value) + "\n";
  }
  last_family.clear();
  for (const GaugeRow& row : gauge_rows) {
    if (row.key.family != last_family) {
      header(row.key.family, "gauge");
      last_family = row.key.family;
    }
    out += row.key.family + LabelBlock(row.key) + " " +
           FormatDouble(row.value) + "\n";
  }
  last_family.clear();
  for (const auto& [key, fn] : callback_rows) {
    if (key.family != last_family) {
      header(key.family, "gauge");
      last_family = key.family;
    }
    out += key.family + LabelBlock(key) + " " + FormatDouble(fn()) + "\n";
  }
  last_family.clear();
  for (const HistogramRow& row : histogram_rows) {
    if (row.key.family != last_family) {
      header(row.key.family, "histogram");
      last_family = row.key.family;
    }
    const bool is_time = row.unit == Histogram::Unit::kNanoseconds;
    const double scale = is_time ? 1e-9 : 1.0;
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      if (row.snapshot.counts[i] == 0) continue;  // sparse, still cumulative
      cumulative += row.snapshot.counts[i];
      const double le =
          static_cast<double>(HistogramSnapshot::BucketUpperBound(i)) * scale;
      out += row.key.family + "_bucket" +
             LabelBlock(row.key, "le", FormatDouble(le)) + " " +
             std::to_string(cumulative) + "\n";
    }
    out += row.key.family + "_bucket" + LabelBlock(row.key, "le", "+Inf") +
           " " + std::to_string(row.snapshot.count) + "\n";
    out += row.key.family + "_sum" + LabelBlock(row.key) + " " +
           FormatDouble(static_cast<double>(row.snapshot.sum) * scale) + "\n";
    out += row.key.family + "_count" + LabelBlock(row.key) + " " +
           std::to_string(row.snapshot.count) + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace fsim
