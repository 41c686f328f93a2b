// WAL tests (serve/wal.h): append/read round trip, contiguous LSN
// validation, torn-tail detection and truncation, mid-log corruption
// rejection, group commit from concurrent appenders, rotation and
// snapshot-bounded retention.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "serve/wal.h"

namespace fsim {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("wal_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }
  /// The single segment file the simple tests write into.
  fs::path OnlySegment() const {
    fs::path found;
    size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      ++count;
      found = entry.path();
    }
    EXPECT_EQ(count, 1u);
    return found;
  }

  fs::path dir_;
};

EditRecord MakeRecord(uint8_t graph, NodeId from, NodeId to, bool insert) {
  EditRecord rec;
  rec.graph_index = graph;
  rec.from = from;
  rec.to = to;
  rec.insert = insert;
  return rec;
}

TEST_F(WalTest, AppendReadRoundTrip) {
  std::vector<EditRecord> written;
  {
    auto writer = WalWriter::Open(dir(), 1);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int i = 0; i < 10; ++i) {
      EditRecord rec = MakeRecord(static_cast<uint8_t>(1 + i % 2),
                                  static_cast<NodeId>(i),
                                  static_cast<NodeId>(i + 1), i % 3 != 0);
      auto lsn = (*writer)->AppendDurable(rec);
      ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
      EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
      rec.lsn = *lsn;
      written.push_back(rec);
    }
    EXPECT_EQ((*writer)->durable_lsn(), 10u);
    EXPECT_EQ((*writer)->next_lsn(), 11u);
  }
  auto tail = ReadWal(dir(), /*truncate_torn_tail=*/false);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(tail->records, written);
  EXPECT_EQ(tail->next_lsn, 11u);
  EXPECT_EQ(tail->torn_bytes, 0u);
  EXPECT_EQ(tail->segments, 1u);
}

TEST_F(WalTest, EmptyOrMissingDirectoryYieldsEmptyTail) {
  auto tail = ReadWal(dir(), true);
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(tail->records.empty());
  EXPECT_EQ(tail->next_lsn, 1u);

  auto missing = ReadWal(dir() + "/does-not-exist", true);
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->records.empty());
}

TEST_F(WalTest, TornTailIsDetectedAndTruncated) {
  {
    auto writer = WalWriter::Open(dir(), 1);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          (*writer)
              ->AppendDurable(MakeRecord(1, static_cast<NodeId>(i), 9, true))
              .ok());
    }
  }
  // Simulate a crash mid-append: a partial frame at the tail.
  const fs::path segment = OnlySegment();
  const uintmax_t intact_size = fs::file_size(segment);
  {
    std::ofstream out(segment, std::ios::binary | std::ios::app);
    out.write("\x13\x00\x00\x00partial", 11);
  }

  // Non-destructive read reports the torn bytes but leaves the file alone.
  auto peek = ReadWal(dir(), /*truncate_torn_tail=*/false);
  ASSERT_TRUE(peek.ok()) << peek.status().ToString();
  EXPECT_EQ(peek->records.size(), 4u);
  EXPECT_EQ(peek->torn_bytes, 11u);
  EXPECT_EQ(fs::file_size(segment), intact_size + 11);

  // Truncating read repairs the segment to the valid prefix.
  auto repaired = ReadWal(dir(), /*truncate_torn_tail=*/true);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->records.size(), 4u);
  EXPECT_EQ(repaired->next_lsn, 5u);
  EXPECT_EQ(fs::file_size(segment), intact_size);

  // After the repair the log reads back clean.
  auto clean = ReadWal(dir(), false);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->torn_bytes, 0u);
  EXPECT_EQ(clean->records.size(), 4u);
}

TEST_F(WalTest, ChecksumCorruptionMidLogFails) {
  {
    auto writer = WalWriter::Open(dir(), 1);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*writer)
              ->AppendDurable(MakeRecord(1, static_cast<NodeId>(i), 9, true))
              .ok());
    }
  }
  // Flip a byte inside the FIRST record's payload: not a torn tail (the
  // write completed) — this is corruption, and since the valid-looking
  // records after it would be unreachable, the read must fail loudly
  // rather than silently dropping acknowledged edits. With a single
  // segment the reader treats the damage as "tail" only if nothing valid
  // follows; a full record DOES follow, so the LSN chain breaks.
  const fs::path segment = OnlySegment();
  std::fstream file(segment, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(12 + 5);  // into the first record's payload (lsn field)
  file.put('\xFF');
  file.close();

  auto tail = ReadWal(dir(), /*truncate_torn_tail=*/false);
  // Either the checksum mismatch truncates everything after it (torn tail
  // at offset 0 — all records dropped) or the sequence check fails; both
  // must refuse to present the intact records as a complete log. Here the
  // checksum fails on record 1, so records 2..3 would be orphaned: the
  // reader reports them as torn bytes rather than valid records.
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_TRUE(tail->records.empty());
  EXPECT_GT(tail->torn_bytes, 0u);
}

TEST_F(WalTest, CorruptionInOlderSegmentIsAnError) {
  {
    auto writer = WalWriter::Open(dir(), 1);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendDurable(MakeRecord(1, 0, 1, true)).ok());
    ASSERT_TRUE((*writer)->Rotate().ok());
    ASSERT_TRUE((*writer)->AppendDurable(MakeRecord(1, 1, 2, true)).ok());
  }
  // Damage the OLD segment: torn tails are only legal where the writer
  // stopped, so this must surface as IOError, not silent truncation.
  fs::path oldest;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (oldest.empty() || entry.path() < oldest) oldest = entry.path();
  }
  std::fstream file(oldest, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(4);
  file.put('\xAA');
  file.close();

  auto tail = ReadWal(dir(), /*truncate_torn_tail=*/true);
  EXPECT_TRUE(tail.status().IsIOError());
}

TEST_F(WalTest, ConcurrentAppendersGroupCommit) {
  auto writer = WalWriter::Open(dir(), 1);
  ASSERT_TRUE(writer.ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&writer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto lsn = (*writer)->AppendDurable(
            MakeRecord(1, static_cast<NodeId>(t), static_cast<NodeId>(i),
                       true));
        ASSERT_TRUE(lsn.ok());
        // The durability contract: by the time AppendDurable returns, the
        // record's LSN is covered by a completed fsync.
        EXPECT_GE((*writer)->durable_lsn(), *lsn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ((*writer)->durable_lsn(),
            static_cast<uint64_t>(kThreads * kPerThread));

  auto tail = ReadWal(dir(), false);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->records.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < tail->records.size(); ++i) {
    EXPECT_EQ(tail->records[i].lsn, i + 1);  // contiguous despite the race
  }
}

TEST_F(WalTest, RotationAndRetention) {
  auto writer = WalWriter::Open(dir(), 1);
  ASSERT_TRUE(writer.ok());
  // Three segments: [1..2], [3..4], [5..] (open).
  for (int seg = 0; seg < 2; ++seg) {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          (*writer)
              ->AppendDurable(MakeRecord(1, static_cast<NodeId>(i), 7, true))
              .ok());
    }
    ASSERT_TRUE((*writer)->Rotate().ok());
  }
  ASSERT_TRUE((*writer)->AppendDurable(MakeRecord(2, 5, 6, false)).ok());

  auto all = ReadWal(dir(), false);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->segments, 3u);
  EXPECT_EQ(all->records.size(), 5u);

  // A snapshot at lsn 2 covers exactly the first segment.
  auto removed = RemoveObsoleteWalSegments(dir(), 2);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  auto rest = ReadWal(dir(), false);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->segments, 2u);
  ASSERT_FALSE(rest->records.empty());
  EXPECT_EQ(rest->records.front().lsn, 3u);
  EXPECT_EQ(rest->records.back().lsn, 5u);

  // A snapshot past everything still never deletes the newest segment.
  removed = RemoveObsoleteWalSegments(dir(), 100);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  rest = ReadWal(dir(), false);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->segments, 1u);
  EXPECT_EQ(rest->records.front().lsn, 5u);
}

TEST_F(WalTest, ResumeAtRecoveredLsnContinuesTheSequence) {
  {
    auto writer = WalWriter::Open(dir(), 1);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*writer)->AppendDurable(MakeRecord(1, 0, 1, true)).ok());
    }
  }
  auto tail = ReadWal(dir(), true);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->next_lsn, 4u);
  {
    auto writer = WalWriter::Open(dir(), tail->next_lsn);
    ASSERT_TRUE(writer.ok());
    auto lsn = (*writer)->AppendDurable(MakeRecord(2, 1, 0, false));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 4u);
  }
  auto all = ReadWal(dir(), false);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->records.size(), 4u);
  EXPECT_EQ(all->records.back().lsn, 4u);
  EXPECT_EQ(all->records.back().graph_index, 2);
  EXPECT_FALSE(all->records.back().insert);
}

// Seeded mutation fuzz of ReadWal over a two-segment log: byte flips,
// truncations and length-field corruption. Every mutant must read as an
// IOError or as a clean torn tail — a prefix of the written records, and
// a truncation after which the log reads back clean — never a crash (the
// Wal* ASan leg runs this) and never a record that was not written.
TEST_F(WalTest, MutatedSegmentsFailCleanly) {
  constexpr int kPerSegment = 6;
  std::vector<EditRecord> written;
  {
    auto writer = WalWriter::Open(dir(), 1);
    ASSERT_TRUE(writer.ok());
    for (int seg = 0; seg < 2; ++seg) {
      if (seg == 1) {
        ASSERT_TRUE((*writer)->Rotate().ok());
      }
      for (int i = 0; i < kPerSegment; ++i) {
        EditRecord rec = MakeRecord(static_cast<uint8_t>(1 + i % 2),
                                    static_cast<NodeId>(seg * 10 + i),
                                    static_cast<NodeId>(i + 3), i % 3 != 0);
        auto lsn = (*writer)->AppendDurable(rec);
        ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
        rec.lsn = *lsn;
        written.push_back(rec);
      }
    }
  }
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    segments.push_back(entry.path());
  }
  std::sort(segments.begin(), segments.end());  // zero-padded first LSNs
  ASSERT_EQ(segments.size(), 2u);
  std::vector<std::string> original;
  for (const fs::path& path : segments) {
    std::ifstream in(path, std::ios::binary);
    original.emplace_back(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>());
  }
  const size_t frame = original[0].size() / kPerSegment;
  ASSERT_EQ(original[0].size(), frame * kPerSegment);

  Rng rng(0x3A1F);
  size_t errors = 0;
  size_t torn = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const size_t target = rng.NextBounded(2);
    std::string bytes = original[target];
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      const size_t pos = rng.NextBounded(bytes.size());
      switch (rng.NextBounded(3)) {
        case 0:  // byte flip
          bytes[pos] = static_cast<char>(bytes[pos] ^
                                         (1 + rng.NextBounded(255)));
          break;
        case 1:  // truncation
          bytes.resize(pos);
          break;
        default: {  // a record's length field: huge, zero, or off by one
          const size_t at = (pos / frame) * frame;
          if (bytes.size() - at < 4) break;
          const uint32_t choices[] = {0xFFFFFFFFu, 0u,
                                      static_cast<uint32_t>(frame - 13),
                                      static_cast<uint32_t>(frame - 11),
                                      static_cast<uint32_t>(rng.Next())};
          const uint32_t len = choices[rng.NextBounded(std::size(choices))];
          std::memcpy(bytes.data() + at, &len, sizeof(len));
          break;
        }
      }
    }
    for (size_t s = 0; s < segments.size(); ++s) {
      std::ofstream out(segments[s], std::ios::binary | std::ios::trunc);
      const std::string& content = s == target ? bytes : original[s];
      out.write(content.data(), static_cast<std::streamsize>(content.size()));
    }

    auto tail = ReadWal(dir(), /*truncate_torn_tail=*/true);
    if (!tail.ok()) {
      ASSERT_TRUE(tail.status().IsIOError())
          << "trial " << trial << ": " << tail.status().ToString();
      ++errors;
      continue;
    }
    ASSERT_LE(tail->records.size(), written.size()) << "trial " << trial;
    ASSERT_TRUE(std::equal(tail->records.begin(), tail->records.end(),
                           written.begin()))
        << "trial " << trial << ": not a prefix of the written records";
    if (tail->records.size() < written.size()) {
      ++torn;
      auto again = ReadWal(dir(), /*truncate_torn_tail=*/false);
      ASSERT_TRUE(again.ok()) << "trial " << trial;
      EXPECT_EQ(again->torn_bytes, 0u) << "trial " << trial;
      EXPECT_EQ(again->records, tail->records) << "trial " << trial;
    }
  }
  EXPECT_GT(errors, 0u);
  EXPECT_GT(torn, 0u);
}

// An older segment truncated to nothing must not read as a log that simply
// starts later: its records were acknowledged, and only the newest segment
// may be empty.
TEST_F(WalTest, EmptyOlderSegmentIsAnError) {
  {
    auto writer = WalWriter::Open(dir(), 1);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendDurable(MakeRecord(1, 0, 1, true)).ok());
    ASSERT_TRUE((*writer)->Rotate().ok());
    ASSERT_TRUE((*writer)->AppendDurable(MakeRecord(1, 1, 2, true)).ok());
  }
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    segments.push_back(entry.path());
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_EQ(segments.size(), 2u);
  fs::resize_file(segments[0], 0);
  const auto tail = ReadWal(dir(), /*truncate_torn_tail=*/true);
  ASSERT_FALSE(tail.ok());
  EXPECT_TRUE(tail.status().IsIOError()) << tail.status().ToString();
}

TEST_F(WalTest, OpenRejectsLsnZero) {
  EXPECT_TRUE(WalWriter::Open(dir(), 0).status().IsInvalidArgument());
}

}  // namespace
}  // namespace fsim
