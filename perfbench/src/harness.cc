#include "harness.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

namespace perfbench {

namespace {

bool ParseUnsigned(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

// The nearest-rank position (1-based, at least 1) of percentile p among n
// samples. The small slack keeps products like 99.9% of 10000 from rounding
// up past the exact rank.
double NearestRank(double p, double n) {
  return std::max(1.0, std::ceil(p / 100.0 * n - 1e-9));
}

std::string FormatNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string TracePath(const Args& args, const std::string& phase) {
  return (std::filesystem::path(args.out_dir) /
          ("perfbench-trace-" + args.workload + "-" + phase + "-" +
           std::to_string(args.seed) + ".json"))
      .string();
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &args->seed)) {
        *error = "bad --seed";
        return false;
      }
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0 || number > 3600) {
        *error = "bad --seconds (a whole number in [1, 3600])";
        return false;
      }
      args->seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &number) || number > 1) {
        *error = "bad --trace (0 or 1)";
        return false;
      }
      args->trace = number == 1;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::Check(bool ok, const std::string& what) {
  attempted_ += 1;
  if (ok) return;
  failed_ += 1;
  failures_.push_back(what);
}

std::string Report::Table() const {
  std::string out;
  char line[256];
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof(line), "  %-44s %16.6f %-6s n=%zu\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    out += line;
  }
  std::snprintf(line, sizeof(line), "  attempted=%llu failed=%llu correct=%s\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                correct() ? "true" : "false");
  out += line;
  for (const std::string& f : failures_) out += "  CHECK FAILED: " + f + "\n";
  return out;
}

std::string Report::JsonLine() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<size_t>(
      NearestRank(p, static_cast<double>(values.size())) - 1);
  return values[std::min(index, values.size() - 1)];
}

double HighestTailPercentile(size_t n, size_t min_beyond) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly above the nearest-rank p-th percentile.
    const double rank = NearestRank(p, static_cast<double>(n));
    if (n > 0 &&
        static_cast<double>(n) - rank >= static_cast<double>(min_beyond)) {
      best = p;
    }
  }
  return best;
}

size_t LatencyHistogram::BucketOf(uint64_t nanos) {
  if (nanos < kExact) return static_cast<size_t>(nanos);
  const int top = 63 - std::countl_zero(nanos);  // >= 7
  const int shift = top - 6;                     // nanos >> shift in [64, 128)
  size_t range = static_cast<size_t>(top - 7);
  if (range >= kRanges) return kExact + kRanges * kSubBuckets - 1;
  return kExact + range * kSubBuckets +
         static_cast<size_t>((nanos >> shift) - kSubBuckets);
}

uint64_t LatencyHistogram::BucketLow(size_t bucket) {
  if (bucket < kExact) return bucket;
  const size_t k = bucket - kExact;
  const uint64_t mantissa = kSubBuckets + k % kSubBuckets;
  return mantissa << (k / kSubBuckets + 1);
}

uint64_t LatencyHistogram::BucketWidth(size_t bucket) {
  if (bucket < kExact) return 1;
  return uint64_t{1} << ((bucket - kExact) / kSubBuckets + 1);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::PercentileNanos(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank =
      static_cast<uint64_t>(NearestRank(p, static_cast<double>(count_)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return static_cast<double>(BucketLow(i)) +
             0.5 * static_cast<double>(BucketWidth(i) - 1);
    }
  }
  return static_cast<double>(BucketLow(buckets_.size() - 1));
}

Tracer::Tracer(bool enabled, uint32_t thread_id, size_t capacity)
    : enabled_(enabled), thread_id_(thread_id), capacity_(capacity) {
  if (enabled_) spans_.reserve(std::min<size_t>(capacity_, 1 << 16));
}

int32_t Tracer::Begin(const char* name, uint64_t request) {
  if (!enabled_) return -1;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNanos();
  spans_.push_back(span);
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNanos();
  // Spans close innermost-first (ScopedSpan); tolerate a skipped child.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::vector<double> Tracer::SelfNanos() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  // Children of one span never overlap each other (one thread), so the
  // covered part of the parent is the sum of its children's durations.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return self;
}

std::vector<double> Tracer::SelfMillis(const char* name,
                                       bool (*keep)(uint64_t)) const {
  const std::vector<double> self = SelfNanos();
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0 &&
        (keep == nullptr || keep(spans_[i].request))) {
      out.push_back(self[i] * 1e-6);
    }
  }
  return out;
}

bool WriteTrace(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"request\": %llu}}",
                   first ? "" : ",", s.name, t->thread_id(),
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, static_cast<unsigned long long>(s.request));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

ScratchDir::ScratchDir(const std::string& parent, const std::string& stem) {
  namespace fs = std::filesystem;
  for (int attempt = 0;; ++attempt) {
    path_ = (fs::path(parent) / (stem + "-" + std::to_string(::getpid()) +
                                 "-" + std::to_string(attempt)))
                .string();
    std::error_code ec;
    if (fs::create_directories(path_, ec)) return;
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", path_.c_str(),
                   ec.message().c_str());
      std::exit(2);
    }
  }
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

int BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

}  // namespace perfbench
