// Shared pieces of the end-to-end benchmark: the run arguments, the report
// (metrics + attempted/failed counts + checks) and its one-line JSON form, a
// fixed-size latency histogram, the percentile helpers, the benchmark's own
// span tracer, and small process helpers (peak RSS, scratch directories).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reader threads of the reads phase (the workload sets it).
  uint32_t readers = 2;
  /// Directory for the span dump and the durability scratch directories
  /// (inside the checkout; run.py passes its build directory).
  std::string out_dir = ".";
};

/// Where a traced run writes the spans of one phase at exit.
std::string TracePath(const Args& args, const std::string& phase);

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--out-dir D]`.
/// Returns false (with a message in *error) on anything else.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error);

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) * 1e-9;
}

/// One reported metric. `samples` is the number of measurements the value
/// summarizes (printed in the human-readable table, not in the JSON line).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 1;
};

/// Everything one run reports: metrics in insertion order, the operations
/// attempted and failed, and the outcome of the output checks.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 1);

  /// Records one operation; `ok` false counts it as failed.
  void Attempt(bool ok, uint64_t count = 1) {
    attempted_ += count;
    if (!ok) failed_ += count;
  }

  /// Records an output check. A failed check makes the run incorrect and
  /// counts as a failed operation.
  void Check(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }

  /// The human-readable table (one metric per line, with sample counts).
  std::string Table() const;
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string JsonLine() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Median of `values` (mean of the middle two for even counts); 0 if empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 if empty.
double Percentile(std::vector<double> values, double p);

/// The highest of the percentiles 50, 90, 99, 99.9, 99.99 that leaves at
/// least `min_beyond` of `n` samples above it (the tail a timing may be
/// reported at); 0 when not even the median qualifies.
double HighestTailPercentile(size_t n, size_t min_beyond = 10);

/// Fixed-size log-linear histogram of nanosecond values: exact below 128 ns,
/// then 64 sub-buckets per power of two (under 1.6% relative error). Its
/// footprint does not grow with the sample count, so recording millions of
/// latencies does not show up in the peak RSS the benchmark reports.
class LatencyHistogram {
 public:
  void Record(uint64_t nanos) {
    ++buckets_[BucketOf(nanos)];
    ++count_;
  }
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// Nearest-rank percentile in nanoseconds (bucket midpoint); 0 if empty.
  double PercentileNanos(double p) const;

  static size_t BucketOf(uint64_t nanos);
  static uint64_t BucketLow(size_t bucket);
  static uint64_t BucketWidth(size_t bucket);

 private:
  static constexpr size_t kExact = 128;
  static constexpr size_t kSubBuckets = 64;
  static constexpr size_t kRanges = 40;  // up to 2^47 ns (~39 hours)
  std::array<uint64_t, kExact + kRanges * kSubBuckets> buckets_{};
  uint64_t count_ = 0;
};

/// One span of the benchmark's own tracing: a timed call into one layer.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;   // index into the same tracer's spans, -1 for roots
  uint64_t request = 0;  // the step/request index the span belongs to
};

/// Single-threaded span recorder. Spans stay in memory (up to a fixed
/// capacity; later ones are counted as dropped) and are written when the
/// benchmark ends. A disabled tracer records nothing.
class Tracer {
 public:
  Tracer(bool enabled, uint32_t thread_id, size_t capacity = 1 << 20);

  bool enabled() const { return enabled_; }
  /// Opens a span under the innermost open span; returns its id (-1 when
  /// disabled or full).
  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  uint32_t thread_id() const { return thread_id_; }
  size_t dropped() const { return dropped_; }

  /// Self time of every span (duration minus the time its children cover),
  /// in nanoseconds, indexed like spans().
  std::vector<double> SelfNanos() const;
  /// Self times (ms) of the spans named `name`, in recording order; with
  /// `keep`, only those whose request it accepts.
  std::vector<double> SelfMillis(const char* name,
                                 bool (*keep)(uint64_t) = nullptr) const;

 private:
  bool enabled_;
  uint32_t thread_id_;
  size_t capacity_;
  size_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; also usable for the duration when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Writes the spans of all tracers as a Chrome trace-event JSON file.
bool WriteTrace(const std::string& path,
                const std::vector<const Tracer*>& tracers);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// A fresh, empty directory under `parent`, removed with its contents on
/// destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& parent, const std::string& stem);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// min(4, hardware threads): the benchmark's "tN".
int BenchThreads();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
