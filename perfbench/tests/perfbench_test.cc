// Tests of the benchmark's own machinery: seeded streams, edits that take
// effect, the fixed publish count, the percentile helpers and the output
// format. Build and run:
//   cmake -S perfbench -B <dir> && cmake --build <dir> --target perfbench_tests
//   <dir>/perfbench_tests
#include <algorithm>
#include <atomic>
#include <limits>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fsim_engine.h"
#include "harness.h"
#include "streams.h"

namespace perfbench {
namespace {

using EdgeSet = std::set<std::pair<fsim::NodeId, fsim::NodeId>>;

EdgeSet Edges(const fsim::Graph& g) {
  EdgeSet edges;
  for (fsim::NodeId u = 0; u < g.NumNodes(); ++u) {
    for (fsim::NodeId v : g.OutNeighbors(u)) edges.emplace(u, v);
  }
  return edges;
}

TEST(Streams, SameSeedSameGraph) {
  const fsim::Graph a = fsim::MakeDataset(SeededSpec("yeast", 7));
  const fsim::Graph b = fsim::MakeDataset(SeededSpec("yeast", 7));
  const fsim::Graph c = fsim::MakeDataset(SeededSpec("yeast", 8));
  EXPECT_EQ(Edges(a), Edges(b));
  EXPECT_NE(Edges(a), Edges(c));
  // The registry shape is kept; only the seed changes.
  EXPECT_EQ(a.NumNodes(), fsim::DatasetSpecByName("yeast")->nodes);
  // A scale changes the node and edge counts only.
  const fsim::DatasetSpec half = SeededSpec("yeast", 7, 0.5);
  EXPECT_EQ(half.seed, SeededSpec("yeast", 7).seed);
  EXPECT_EQ(half.nodes, fsim::DatasetSpecByName("yeast")->nodes / 2);
  EXPECT_EQ(half.edges, fsim::DatasetSpecByName("yeast")->edges / 2);
  EXPECT_EQ(half.labels, fsim::DatasetSpecByName("yeast")->labels);
}

TEST(Streams, SameSeedSameEditStream) {
  const fsim::Graph g = fsim::MakeDataset(SeededSpec("yeast", 1));
  const auto a = MakeEditStream(g, 42, 200);
  const auto b = MakeEditStream(g, 42, 200);
  const auto c = MakeEditStream(g, 43, 200);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // A longer stream extends a shorter one, so runs of different lengths
  // replay the same edits.
  const auto longer = MakeEditStream(g, 42, 400);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), longer.begin()));
}

TEST(Streams, EveryEditTakesEffect) {
  const fsim::Graph g = fsim::MakeDataset(SeededSpec("yeast", 3));
  EdgeSet edges = Edges(g);
  const auto stream = MakeEditStream(g, 3, 500);
  ASSERT_EQ(stream.size(), 500u);
  for (const EditStep& e : stream) {
    ASSERT_NE(e.from, e.to);
    ASSERT_LT(e.from, g.NumNodes());
    ASSERT_LT(e.to, g.NumNodes());
    const bool present = edges.count({e.from, e.to}) > 0;
    // Insert an absent edge or remove a present one: never a net no-op.
    ASSERT_NE(present, e.insert);
    if (e.insert) {
      edges.emplace(e.from, e.to);
    } else {
      edges.erase({e.from, e.to});
    }
  }
  EXPECT_EQ(edges.size(), g.NumEdges());  // inserts and removes alternate
}

TEST(Streams, SameSeedSameQueries) {
  const fsim::Graph g = fsim::MakeDataset(SeededSpec("yeast", 1));
  fsim::FSimConfig config;
  config.theta = 1.0;
  auto scores = fsim::ComputeFSim(g, g, config);
  ASSERT_TRUE(scores.ok());
  QueryStream a(9, 0, &*scores, 16);
  QueryStream b(9, 0, &*scores, 16);
  QueryStream other_reader(9, 1, &*scores, 16);
  size_t same_as_other = 0;
  double kinds[4] = {0, 0, 0, 0};  // pair, thresh, topk cached, topk row
  for (int i = 0; i < 20000; ++i) {
    const fsim::Query x = a.Next();
    const fsim::Query y = b.Next();
    const fsim::Query z = other_reader.Next();
    ASSERT_EQ(x.kind, y.kind);
    ASSERT_EQ(x.u, y.u);
    ASSERT_EQ(x.v, y.v);
    ASSERT_EQ(x.k, y.k);
    ASSERT_EQ(x.tau, y.tau);
    if (x.kind == z.kind && x.u == z.u && x.v == z.v) ++same_as_other;
    if (x.kind == fsim::Query::Kind::kPair) {
      ASSERT_TRUE(scores->Contains(x.u, x.v));
      ++kinds[0];
    } else if (x.kind == fsim::Query::Kind::kThreshold) {
      ++kinds[1];
    } else {
      ++kinds[x.k <= 16 ? 2 : 3];
    }
  }
  EXPECT_LT(same_as_other, 2000u);  // readers draw different streams
  // The mix: ~90% PAIR, 5% THRESH, 4% cached TOPK, 1% row TOPK.
  EXPECT_NEAR(kinds[0] / 20000.0, 0.90, 0.01);
  EXPECT_NEAR(kinds[1] / 20000.0, 0.05, 0.01);
  EXPECT_NEAR(kinds[2] / 20000.0, 0.04, 0.01);
  EXPECT_NEAR(kinds[3] / 20000.0, 0.01, 0.005);
}

TEST(PublishPacer, PublishCountIsFixedAndPacedByProgress) {
  PublishPacer pacer(/*queries_per_publish=*/100, /*publishes=*/5);
  std::atomic<uint64_t> progress{0};
  std::vector<uint64_t> progress_at_publish;
  std::thread publisher([&] {
    for (size_t i = 0; i < pacer.publishes(); ++i) {
      if (!pacer.WaitForTurn(i)) return;
      progress_at_publish.push_back(progress.load());
      pacer.MarkPublished(i);
    }
  });
  // A reader that keeps going well past the last milestone.
  while (!pacer.done()) {
    progress += 10;
    pacer.AddProgress(10);
    if (progress.load() > 100000) break;
  }
  for (int i = 0; i < 100; ++i) pacer.AddProgress(10);
  publisher.join();
  ASSERT_EQ(progress_at_publish.size(), 5u);
  for (size_t i = 0; i < progress_at_publish.size(); ++i) {
    EXPECT_GE(progress_at_publish[i], (i + 1) * 100);
  }
  EXPECT_TRUE(pacer.done());
}

TEST(PublishPacer, CancelReleasesTheBlockedPublisher) {
  PublishPacer pacer(1000, 3);
  bool released = true;
  std::thread publisher([&] { released = pacer.WaitForTurn(0); });
  pacer.Cancel();
  publisher.join();
  EXPECT_FALSE(released);
  EXPECT_TRUE(pacer.done());
}

TEST(Percentiles, HighestTailPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(HighestTailPercentile(0), 0.0);
  EXPECT_EQ(HighestTailPercentile(19), 0.0);
  EXPECT_EQ(HighestTailPercentile(20), 50.0);
  EXPECT_EQ(HighestTailPercentile(99), 50.0);
  EXPECT_EQ(HighestTailPercentile(100), 90.0);
  EXPECT_EQ(HighestTailPercentile(999), 90.0);
  EXPECT_EQ(HighestTailPercentile(1000), 99.0);
  EXPECT_EQ(HighestTailPercentile(10000), 99.9);
  EXPECT_EQ(HighestTailPercentile(100000), 99.99);
  EXPECT_EQ(HighestTailPercentile(1000, 20), 90.0);
}

TEST(Percentiles, MedianAndNearestRank) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50.0);
  EXPECT_EQ(Percentile(v, 99), 99.0);
  EXPECT_EQ(Percentile(v, 100), 100.0);
}

TEST(LatencyHistogram, BucketsAreExactThenWithinTwoPercent) {
  for (uint64_t v = 0; v < 128; ++v) {
    const size_t b = LatencyHistogram::BucketOf(v);
    EXPECT_EQ(LatencyHistogram::BucketLow(b), v);
    EXPECT_EQ(LatencyHistogram::BucketWidth(b), 1u);
  }
  for (uint64_t v = 128; v < (uint64_t{1} << 40); v = v * 3 / 2 + 7) {
    const size_t b = LatencyHistogram::BucketOf(v);
    const uint64_t low = LatencyHistogram::BucketLow(b);
    const uint64_t width = LatencyHistogram::BucketWidth(b);
    ASSERT_LE(low, v);
    ASSERT_LT(v, low + width);
    ASSERT_LE(static_cast<double>(width), 0.016 * static_cast<double>(low));
  }
}

TEST(LatencyHistogram, PercentilesOfKnownData) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);  // exact range
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.PercentileNanos(50), 50.0);
  EXPECT_EQ(h.PercentileNanos(99), 99.0);
  LatencyHistogram big;
  for (int i = 0; i < 990; ++i) big.Record(500);
  for (int i = 0; i < 10; ++i) big.Record(1'000'000);
  EXPECT_NEAR(big.PercentileNanos(50), 500, 500 * 0.016);
  EXPECT_NEAR(big.PercentileNanos(99), 500, 500 * 0.016);
  EXPECT_NEAR(big.PercentileNanos(99.9), 1e6, 1e6 * 0.016);
  LatencyHistogram merged;
  merged.Merge(h);
  merged.Merge(big);
  EXPECT_EQ(merged.count(), 1100u);
}

TEST(Report, JsonLineHasExactlyTheResultKeys) {
  Report report;
  report.Add("latency_ms", 1.25, "ms", 40);
  report.Add("setup_s", 0.5, "s");
  report.Attempt(true, 9);
  report.Check(true, "fine");
  EXPECT_EQ(report.JsonLine(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  report.Check(false, "a failed check");
  EXPECT_FALSE(report.correct());
  EXPECT_EQ(report.failed(), 1u);
  EXPECT_EQ(report.attempted(), 11u);
  // Non-finite values would not be valid JSON: they fail the run instead.
  Report bad;
  bad.Add("x", std::numeric_limits<double>::infinity(), "s");
  EXPECT_FALSE(bad.correct());
  EXPECT_NE(bad.JsonLine().find("\"x\": {\"value\": 0,"), std::string::npos);
}

TEST(Args, ParsesTheDriverCommandLine) {
  const char* argv[] = {"perfbench", "--workload", "one_reader", "--seed", "17",
                        "--seconds", "20", "--trace", "1"};
  Args args;
  std::string error;
  ASSERT_TRUE(ParseArgs(9, const_cast<char**>(argv), &args, &error)) << error;
  EXPECT_EQ(args.workload, "one_reader");
  EXPECT_EQ(args.seed, 17u);
  EXPECT_EQ(args.seconds, 20.0);
  EXPECT_TRUE(args.trace);
  const char* bad[] = {"perfbench", "--workload", "one_reader", "--trace", "2"};
  EXPECT_FALSE(ParseArgs(5, const_cast<char**>(bad), &args, &error));
  const char* missing[] = {"perfbench", "--seed", "1"};
  EXPECT_FALSE(ParseArgs(3, const_cast<char**>(missing), &args, &error));
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer t(true, 0);
  {
    ScopedSpan parent(&t, "parent", 1);
    { ScopedSpan child(&t, "child", 1); }
    { ScopedSpan child(&t, "child", 1); }
  }
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 0);
  const std::vector<double> self = t.SelfNanos();
  const double parent_total =
      static_cast<double>(t.spans()[0].end_ns - t.spans()[0].start_ns);
  EXPECT_DOUBLE_EQ(self[0] + self[1] + self[2], parent_total);
  Tracer off(false, 0);
  { ScopedSpan s(&off, "x", 0); }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
