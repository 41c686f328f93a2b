#include "serve/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace fsim {

namespace {

constexpr uint8_t kRecordTypeEdit = 1;
// type + lsn + graph + insert + from + to.
constexpr uint32_t kEditPayloadLen = 1 + 8 + 1 + 1 + 4 + 4;
// len + checksum prefix.
constexpr size_t kFrameHeaderLen = 4 + 8;
// Defensive bound so a corrupt length field cannot drive a huge allocation
// or skip past real records.
constexpr uint32_t kMaxPayloadLen = 1 << 20;

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";

std::string SegmentPath(const std::string& dir, uint64_t first_lsn) {
  return StrFormat("%s/%s%020llu%s", dir.c_str(), kSegmentPrefix,
                   static_cast<unsigned long long>(first_lsn), kSegmentSuffix);
}

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

std::string EncodeRecord(const EditRecord& rec) {
  std::string payload;
  payload.reserve(kEditPayloadLen);
  payload.push_back(static_cast<char>(kRecordTypeEdit));
  AppendU64(&payload, rec.lsn);
  payload.push_back(static_cast<char>(rec.graph_index));
  payload.push_back(rec.insert ? 1 : 0);
  AppendU32(&payload, rec.from);
  AppendU32(&payload, rec.to);

  std::string frame;
  frame.reserve(kFrameHeaderLen + payload.size());
  AppendU32(&frame, static_cast<uint32_t>(payload.size()));
  AppendU64(&frame, HashBytes(payload.data(), payload.size()));
  frame.append(payload);
  return frame;
}

// Decodes one checksum-verified payload. Any malformed field means the bytes
// are not a record this writer produced (torn tail or corruption upstream).
bool DecodePayload(std::string_view payload, EditRecord* out) {
  if (payload.size() != kEditPayloadLen) return false;
  if (static_cast<uint8_t>(payload[0]) != kRecordTypeEdit) return false;
  EditRecord rec;
  std::memcpy(&rec.lsn, payload.data() + 1, 8);
  rec.graph_index = static_cast<uint8_t>(payload[9]);
  if (rec.graph_index != 1 && rec.graph_index != 2) return false;
  const uint8_t insert = static_cast<uint8_t>(payload[10]);
  if (insert > 1) return false;
  rec.insert = insert == 1;
  std::memcpy(&rec.from, payload.data() + 11, 4);
  std::memcpy(&rec.to, payload.data() + 15, 4);
  *out = rec;
  return true;
}

Status WriteAll(int fd, const char* data, size_t len, const std::string& path) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("wal write to %s failed: %s",
                                       path.c_str(), std::strerror(errno)));
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

// durability: the segment's directory entry must survive a crash too, or a
// durable record could sit in a file no post-crash scan can find.
Status SyncDirectory(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return Status::IOError(StrFormat("cannot open wal directory %s: %s",
                                     dir.c_str(), std::strerror(errno)));
  }
  // durability: a freshly created segment exists after a crash only once
  // its directory entry is synced (rename-less create).
  const int rc = ::fsync(dfd);
  const int saved_errno = errno;
  ::close(dfd);
  if (rc != 0) {
    return Status::IOError(StrFormat("fsync of wal directory %s failed: %s",
                                     dir.c_str(),
                                     std::strerror(saved_errno)));
  }
  return Status::OK();
}

// Segment files of `dir`, (first_lsn, path) sorted ascending. Non-segment
// files are ignored so snapshots and temp files can share the directory.
Result<std::vector<std::pair<uint64_t, std::string>>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError(StrFormat("cannot list wal directory %s: %s",
                                     dir.c_str(), ec.message().c_str()));
  }
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (!StartsWith(name, kSegmentPrefix) ||
        name.size() <= std::strlen(kSegmentPrefix) +
                           std::strlen(kSegmentSuffix) ||
        name.substr(name.size() - std::strlen(kSegmentSuffix)) !=
            kSegmentSuffix) {
      continue;
    }
    const std::string_view digits =
        std::string_view(name).substr(std::strlen(kSegmentPrefix),
                                      name.size() -
                                          std::strlen(kSegmentPrefix) -
                                          std::strlen(kSegmentSuffix));
    auto lsn = ParseUint64(digits);
    if (!lsn.ok()) continue;  // not one of ours
    segments.emplace_back(*lsn, entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace

Result<std::unique_ptr<WalWriter>> WalWriter::Open(std::string dir,
                                                   uint64_t next_lsn) {
  if (next_lsn == 0) {
    return Status::InvalidArgument("wal lsns start at 1");
  }
  // Immediately owned by unique_ptr; the ctor is private so make_unique
  // cannot be used.
  // fsim-lint: allow(naked-new)
  std::unique_ptr<WalWriter> writer(new WalWriter(std::move(dir), next_lsn));
  std::lock_guard<std::mutex> lock(writer->write_mu_);
  FSIM_RETURN_NOT_OK(writer->OpenSegmentLocked());
  return writer;
}

Status WalWriter::OpenSegmentLocked() {
  path_ = SegmentPath(dir_, next_lsn_.load(std::memory_order_relaxed));
  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    return Status::IOError(StrFormat("cannot open wal segment %s: %s",
                                     path_.c_str(), std::strerror(errno)));
  }
  // durability: persist the new segment's directory entry before any record
  // lands in it (rename-less create; the dentry is the only pointer).
  return SyncDirectory(dir_);
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    // durability: best-effort drain on shutdown; acknowledged records were
    // already covered by AppendDurable's group commit.
    ::fsync(fd_);
    ::close(fd_);
  }
}

namespace {

// WAL instrumentation handles, resolved once (obs/metrics.h). "leader"
// group commits performed the fsync; "rider" commits were covered by a
// concurrent leader's sync and skipped their own.
struct WalMetrics {
  obs::Histogram* append_latency;
  obs::Histogram* fsync_latency;
  obs::Counter* commits_leader;
  obs::Counter* commits_rider;

  static const WalMetrics& Get() {
    static const WalMetrics metrics = [] {
      obs::Registry& registry = obs::Registry::Default();
      WalMetrics m;
      m.append_latency = registry.GetHistogram(
          "fsim_wal_append_seconds",
          "AppendDurable latency: write + group-commit wait, per record",
          obs::Histogram::Unit::kNanoseconds);
      m.fsync_latency = registry.GetHistogram(
          "fsim_wal_fsync_seconds", "WAL segment fsync latency",
          obs::Histogram::Unit::kNanoseconds);
      m.commits_leader = registry.GetCounter(
          "fsim_wal_group_commits_total",
          "Group-commit outcomes: leader performed the fsync, rider was "
          "covered by a concurrent leader",
          "role", "leader");
      m.commits_rider = registry.GetCounter(
          "fsim_wal_group_commits_total",
          "Group-commit outcomes: leader performed the fsync, rider was "
          "covered by a concurrent leader",
          "role", "rider");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

Result<uint64_t> WalWriter::AppendDurable(EditRecord rec) {
  FSIM_FAILPOINT("serve.wal.append");
  const WalMetrics& metrics = WalMetrics::Get();
  obs::ScopedLatencyTimer append_timer(metrics.append_latency);
  uint64_t lsn;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    lsn = next_lsn_.fetch_add(1, std::memory_order_acq_rel);
    rec.lsn = lsn;
    const std::string frame = EncodeRecord(rec);
    FSIM_RETURN_NOT_OK(WriteAll(fd_, frame.data(), frame.size(), path_));
    written_lsn_.store(lsn, std::memory_order_release);
  }
  // Group commit: whoever takes sync_mu_ first fsyncs everything written so
  // far; later arrivals whose LSN that sync covered skip theirs entirely.
  if (durable_lsn_.load(std::memory_order_acquire) < lsn) {
    std::lock_guard<std::mutex> lock(sync_mu_);
    if (durable_lsn_.load(std::memory_order_acquire) < lsn) {
      // Read before the fsync: only writes already issued are covered.
      const uint64_t cover = written_lsn_.load(std::memory_order_acquire);
      FSIM_FAILPOINT("serve.wal.sync");
      const uint64_t sync_start_ns = obs::MonotonicNanos();
      // durability: this fsync is the acknowledgement barrier — Submit must
      // not report an edit accepted until its record is on stable storage.
      if (::fsync(fd_) != 0) {
        return Status::IOError(StrFormat("wal fsync of %s failed: %s",
                                         path_.c_str(),
                                         std::strerror(errno)));
      }
      metrics.fsync_latency->Record(obs::MonotonicNanos() - sync_start_ns);
      metrics.commits_leader->Inc();
      durable_lsn_.store(cover, std::memory_order_release);
    } else {
      metrics.commits_rider->Inc();
    }
  } else {
    metrics.commits_rider->Inc();
  }
  return lsn;
}

Status WalWriter::Rotate() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::lock_guard<std::mutex> sync_lock(sync_mu_);
  // durability: drain the old segment before abandoning its fd, so rotation
  // can never regress durable_lsn_.
  if (::fsync(fd_) != 0) {
    return Status::IOError(StrFormat("wal fsync of %s failed: %s",
                                     path_.c_str(), std::strerror(errno)));
  }
  durable_lsn_.store(written_lsn_.load(std::memory_order_acquire),
                     std::memory_order_release);
  ::close(fd_);
  fd_ = -1;
  return OpenSegmentLocked();
}

Result<WalTail> ReadWal(const std::string& dir, bool truncate_torn_tail) {
  WalTail tail;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec) || ec) return tail;
  FSIM_ASSIGN_OR_RETURN(auto segments, ListSegments(dir));
  tail.segments = segments.size();

  for (size_t si = 0; si < segments.size(); ++si) {
    const std::string& path = segments[si].second;
    const bool last_segment = si + 1 == segments.size();
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status::IOError(StrFormat("cannot open wal segment %s",
                                       path.c_str()));
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
      return Status::IOError(StrFormat("read from wal segment %s failed",
                                       path.c_str()));
    }
    const std::string bytes = buffer.str();
    if (bytes.empty() && !last_segment) {
      // The writer appends before it rotates, so only the newest segment
      // can be empty; an older one lost records that were acknowledged.
      return Status::IOError(StrFormat(
          "wal segment %s is empty but is not the newest segment",
          path.c_str()));
    }

    size_t pos = 0;
    bool torn = false;
    while (pos < bytes.size()) {
      uint32_t len = 0;
      uint64_t checksum = 0;
      if (bytes.size() - pos < kFrameHeaderLen) {
        torn = true;
        break;
      }
      std::memcpy(&len, bytes.data() + pos, 4);
      std::memcpy(&checksum, bytes.data() + pos + 4, 8);
      if (len > kMaxPayloadLen || bytes.size() - pos - kFrameHeaderLen < len) {
        torn = true;
        break;
      }
      const std::string_view payload(bytes.data() + pos + kFrameHeaderLen,
                                     len);
      EditRecord rec;
      if (HashBytes(payload.data(), payload.size()) != checksum ||
          !DecodePayload(payload, &rec)) {
        torn = true;
        break;
      }
      const uint64_t expected =
          tail.records.empty() ? segments[si].first
                               : tail.records.back().lsn + 1;
      if (rec.lsn != expected) {
        return Status::IOError(StrFormat(
            "wal segment %s: record lsn %llu, expected %llu (log out of "
            "sequence)",
            path.c_str(), static_cast<unsigned long long>(rec.lsn),
            static_cast<unsigned long long>(expected)));
      }
      tail.records.push_back(rec);
      pos += kFrameHeaderLen + len;
    }

    if (torn) {
      if (!last_segment) {
        return Status::IOError(StrFormat(
            "wal segment %s is corrupt at offset %zu but is not the newest "
            "segment (torn tails can only exist where the writer stopped)",
            path.c_str(), pos));
      }
      tail.torn_bytes = bytes.size() - pos;
      if (truncate_torn_tail) {
        std::error_code resize_ec;
        std::filesystem::resize_file(path, pos, resize_ec);
        if (resize_ec) {
          return Status::IOError(StrFormat(
              "cannot truncate torn wal tail of %s: %s", path.c_str(),
              resize_ec.message().c_str()));
        }
      }
    }
  }

  if (!tail.records.empty()) tail.next_lsn = tail.records.back().lsn + 1;
  return tail;
}

Result<size_t> RemoveObsoleteWalSegments(const std::string& dir,
                                         uint64_t snapshot_lsn) {
  FSIM_ASSIGN_OR_RETURN(auto segments, ListSegments(dir));
  size_t removed = 0;
  // Segment i spans [first_i, first_{i+1}); it is fully covered when every
  // lsn below first_{i+1} is at or below the snapshot. The newest segment is
  // never removed — the writer may hold it open.
  for (size_t si = 0; si + 1 < segments.size(); ++si) {
    if (segments[si + 1].first > snapshot_lsn + 1) break;
    std::error_code ec;
    std::filesystem::remove(segments[si].second, ec);
    if (ec) {
      return Status::IOError(StrFormat("cannot remove wal segment %s: %s",
                                       segments[si].second.c_str(),
                                       ec.message().c_str()));
    }
    ++removed;
  }
  return removed;
}

}  // namespace fsim
