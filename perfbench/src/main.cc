// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload two_readers|one_reader --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Every run goes through the same three phases (workloads.h): reads under
// publish, a batch solve, and edits made visible and restarted. The
// workload sets the number of reader threads in the reads phase; the other
// phases are the same in both. Prints a human-readable table and, as the
// last line of standard output, one JSON object {"correct", "attempted",
// "failed", "metrics"}. Exit code 0 whenever a result was printed (a failed
// check shows as correct=false).
#include <malloc.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

struct Slot {
  const char* name;
  std::unique_ptr<perfbench::Phase> phase;
  double share;  // of --seconds
  double used_s = 0.0;
  int steps = 0;
  bool open = true;
};

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  if (args.workload == "two_readers") {
    args.readers = 2;
  } else if (args.workload == "one_reader") {
    args.readers = 1;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  // Two malloc arenas instead of glibc's default of eight per core. With
  // the default, which threads happen to allocate first decides how many
  // arenas end up holding freed memory, and the peak RSS of one seed varied
  // by ~10% from run to run; with two it repeats to within 0.1 MiB.
  mallopt(M_ARENA_MAX, 2);
  // A fixed mmap threshold: every block of 256 KiB or more is mapped on its
  // own and unmapped when freed. glibc otherwise raises the threshold each
  // time such a block is freed, so later large blocks come from the heap,
  // where what is freed and reused depends on the order of allocations
  // across threads, and the peak RSS of a run varied between 116 and 145
  // MiB across seeds.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  perfbench::Report report;
  // Edits gets the largest share: its rounds are the longest unit of work,
  // and its metrics steady only over several rounds (several graphs).
  Slot slots[] = {{"reads", perfbench::MakeReads(args, &report), 0.20},
                  {"solve", perfbench::MakeSolve(args, &report), 0.35},
                  {"edits", perfbench::MakeEdits(args, &report), 0.45}};

  // The run's set-up is the sum of the phases' set-ups (each the median of
  // several). The reads service is set up first, in a fresh heap, and
  // serves until the end of the run.
  double setup_s = 0.0;
  for (Slot& s : slots) setup_s += s.phase->SetUp();

  // The host this was tuned on changes speed by 10-30% from one stretch of
  // tens of seconds to minutes to the next. Interleaving the phases over
  // the run, instead of running one after the other, spreads every phase's
  // samples over the whole run, so a slow stretch within it moves only some
  // of a metric's samples. In each cycle a phase takes at least one step,
  // then more while its time stays short of its share so far.
  for (int cycle = 1; cycle <= perfbench::kCycles; ++cycle) {
    for (Slot& s : slots) {
      const double slice_s = s.share * args.seconds / perfbench::kCycles;
      const double target_s = slice_s * cycle;
      do {
        if (!s.open) break;
        const uint64_t start = perfbench::NowNanos();
        s.open = s.phase->Step(slice_s);
        s.used_s += perfbench::SecondsSince(start);
        ++s.steps;
        // Hand freed memory back to the OS, so one phase's allocations do
        // not land on top of whatever the heap kept from another's and the
        // peak RSS follows the largest live set.
        malloc_trim(0);
      } while (s.used_s + 0.5 * s.used_s / s.steps < target_s);
    }
    std::printf("cycle %d: peak RSS so far %.1f MiB\n", cycle,
                perfbench::PeakRssMb());
  }
  for (Slot& s : slots) {
    std::printf("%s: %d steps in %.2f s\n", s.name, s.steps, s.used_s);
    s.phase->Finish();
  }
  if (!args.trace) {
    report.Add("setup_s", setup_s, "s");
    report.Add("peak_rss_mb", perfbench::PeakRssMb(), "MiB");
  }
  std::printf("%s", report.Table().c_str());
  std::printf("%s\n", report.JsonLine().c_str());
  std::fflush(stdout);
  return 0;
}
