// The three phases of every run: reads under publish, a batch solve, and
// edits made visible and restarted. main sets each up once, interleaves
// their steps over kCycles cycles of the run, so that every phase's samples
// spread over the whole run instead of one stretch of it, and then lets
// each check its outputs and report. A phase adds its end-to-end metrics
// (args.trace == false) or its per-layer metrics (args.trace == true), the
// operations it attempted and failed, and the outcome of its checks to the
// report it was made with; the run's setup_s and peak_rss_mb are main's.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>

#include "harness.h"

namespace perfbench {

/// Cycles main interleaves the phases over; reads runs one slice per cycle.
constexpr int kCycles = 4;

class Phase {
 public:
  virtual ~Phase() = default;
  /// Builds the phase's inputs, several times over; returns the median
  /// set-up time in seconds.
  virtual double SetUp() = 0;
  /// One unit of work: a solve repetition, an edits round, or a reads slice
  /// of `seconds`. Returns false when the phase can take no further step
  /// (a failure, or its inputs are used up).
  virtual bool Step(double seconds) = 0;
  /// The checks that need the whole run, then the metrics.
  virtual void Finish() = 0;
};

std::unique_ptr<Phase> MakeReads(const Args& args, Report* report);
std::unique_ptr<Phase> MakeSolve(const Args& args, Report* report);
std::unique_ptr<Phase> MakeEdits(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
