#include "serve/recovery.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "core/scores_io.h"
#include "graph/binary_io.h"
#include "obs/trace.h"

namespace fsim {

namespace {

constexpr char kSnapshotMagic[8] = {'F', 'S', 'I', 'M', 'S', 'N', 'P', '1'};
// Version 1 framed text scores (core/scores_io.h) under an FNV-1a checksum;
// it is still read, never written. Version 2 is the binary score blob under
// WordHash64.
constexpr uint32_t kSnapshotVersionText = 1;
constexpr uint32_t kSnapshotVersion = 2;

// The score blob is the in-memory key and value arrays copied verbatim.
static_assert(std::endian::native == std::endian::little,
              ".fsnap score blobs are little-endian");

constexpr char kSnapshotPrefix[] = "snap-";
constexpr char kSnapshotSuffix[] = ".fsnap";

std::string SnapshotPath(const std::string& dir, uint64_t lsn) {
  return StrFormat("%s/%s%020llu%s", dir.c_str(), kSnapshotPrefix,
                   static_cast<unsigned long long>(lsn), kSnapshotSuffix);
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

void AppendBlob(std::string* out, std::string_view blob) {
  AppendU64(out, blob.size());
  out->append(blob);
}

// Snapshot files, (lsn, path) sorted ascending.
Result<std::vector<std::pair<uint64_t, std::string>>> ListSnapshots(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> snapshots;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError(StrFormat("cannot list durability directory %s: %s",
                                     dir.c_str(), ec.message().c_str()));
  }
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (!StartsWith(name, kSnapshotPrefix) ||
        name.size() <= std::strlen(kSnapshotPrefix) +
                           std::strlen(kSnapshotSuffix) ||
        name.substr(name.size() - std::strlen(kSnapshotSuffix)) !=
            kSnapshotSuffix) {
      continue;
    }
    const std::string_view digits =
        std::string_view(name).substr(std::strlen(kSnapshotPrefix),
                                      name.size() -
                                          std::strlen(kSnapshotPrefix) -
                                          std::strlen(kSnapshotSuffix));
    auto lsn = ParseUint64(digits);
    if (!lsn.ok()) continue;
    snapshots.emplace_back(*lsn, entry.path().string());
  }
  std::sort(snapshots.begin(), snapshots.end());
  return snapshots;
}

// The version 2 score blob: u64 n, then n u-major keys, then n values.
// Keys must be strictly increasing, so a sorted, duplicate-free table needs
// no re-sort; every id and score is range-checked like the text reader's.
Result<FSimScores> ScoresFromBlob(std::string_view blob) {
  uint64_t n = 0;
  if (blob.size() >= 8) std::memcpy(&n, blob.data(), 8);
  // Positions are u32, and bounding n first keeps 16 * n from wrapping.
  if (blob.size() < 8 || n >= FlatPairMap::kNotFound ||
      blob.size() != 8 + 16 * n) {
    return Status::IOError("snapshot score blob size does not match its "
                           "pair count");
  }
  std::vector<uint64_t> keys(n);
  std::vector<double> values(n);
  if (n > 0) {
    std::memcpy(keys.data(), blob.data() + 8, n * sizeof(uint64_t));
    std::memcpy(values.data(), blob.data() + 8 + n * sizeof(uint64_t),
                n * sizeof(double));
  }
  FlatPairMap index(n);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && keys[i] <= keys[i - 1]) {
      return Status::IOError(
          StrFormat("snapshot score keys not increasing at pair %zu", i));
    }
    if (PairFirst(keys[i]) == kInvalidNode ||
        PairSecond(keys[i]) == kInvalidNode) {
      return Status::IOError(
          StrFormat("snapshot node id out of range at pair %zu", i));
    }
    if (!std::isfinite(values[i]) || values[i] < 0.0 || values[i] > 1.0) {
      return Status::IOError(
          StrFormat("snapshot score out of range at pair %zu", i));
    }
    index.Insert(keys[i], static_cast<uint32_t>(i));
  }
  return FSimScores(std::move(keys), std::move(values), std::move(index),
                    FSimStats{});
}

// Reads a whole file with one sized read.
Status ReadFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int saved_errno = errno;
    ::close(fd);
    return Status::IOError(StrFormat("cannot stat %s: %s", path.c_str(),
                                     std::strerror(saved_errno)));
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < out->size()) {
    const ssize_t n = ::read(fd, out->data() + done, out->size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  if (done != out->size()) {
    return Status::IOError(StrFormat("short read of %s", path.c_str()));
  }
  return Status::OK();
}

Status SyncDirectory(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return Status::IOError(StrFormat("cannot open directory %s: %s",
                                     dir.c_str(), std::strerror(errno)));
  }
  // durability: a renamed-in snapshot is only crash-visible once its
  // directory entry is on disk.
  const int rc = ::fsync(dfd);
  const int saved_errno = errno;
  ::close(dfd);
  if (rc != 0) {
    return Status::IOError(StrFormat("fsync of directory %s failed: %s",
                                     dir.c_str(),
                                     std::strerror(saved_errno)));
  }
  return Status::OK();
}

}  // namespace

Result<LoadedSnapshot> ParseSnapshot(std::string_view bytes, uint64_t lsn) {
  if (bytes.size() < sizeof(kSnapshotMagic) + 4 + 8 ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return Status::IOError("not an fsim snapshot (bad magic)");
  }
  uint32_t version;
  std::memcpy(&version, bytes.data() + sizeof(kSnapshotMagic), 4);
  if (version != kSnapshotVersion && version != kSnapshotVersionText) {
    return Status::IOError(
        StrFormat("unsupported snapshot version %u", version));
  }
  const size_t payload_end = bytes.size() - 8;
  uint64_t stored_checksum;
  std::memcpy(&stored_checksum, bytes.data() + payload_end, 8);
  const char* payload = bytes.data() + sizeof(kSnapshotMagic);
  const size_t payload_len = payload_end - sizeof(kSnapshotMagic);
  const uint64_t computed = version == kSnapshotVersion
                                ? WordHash64(payload, payload_len)
                                : HashBytes(payload, payload_len);
  if (stored_checksum != computed) {
    return Status::IOError("snapshot checksum mismatch (torn or corrupt)");
  }

  size_t pos = sizeof(kSnapshotMagic) + 4;
  auto read_u64 = [&](uint64_t* v) {
    if (payload_end - pos < 8) return false;
    std::memcpy(v, bytes.data() + pos, 8);
    pos += 8;
    return true;
  };
  auto read_blob = [&](std::string_view* out) {
    uint64_t len;
    if (!read_u64(&len) || payload_end - pos < len) return false;
    *out = bytes.substr(pos, len);
    pos += len;
    return true;
  };

  uint64_t stored_lsn;
  std::string_view g1_bytes, g2_bytes, scores_bytes;
  if (!read_u64(&stored_lsn) || stored_lsn != lsn) {
    return Status::IOError("snapshot lsn does not match its filename");
  }
  if (!read_blob(&g1_bytes) || !read_blob(&g2_bytes) ||
      !read_blob(&scores_bytes) || pos != payload_end) {
    return Status::IOError("snapshot payload is malformed");
  }

  LoadedSnapshot snap;
  snap.lsn = lsn;
  // Both graphs share one dictionary, as the serving layer loads them.
  FSIM_ASSIGN_OR_RETURN(snap.g1, GraphFromBinary(g1_bytes));
  FSIM_ASSIGN_OR_RETURN(snap.g2, GraphFromBinary(g2_bytes, snap.g1.dict()));
  FSIM_ASSIGN_OR_RETURN(snap.scores, version == kSnapshotVersion
                                         ? ScoresFromBlob(scores_bytes)
                                         : ScoresFromString(scores_bytes));
  return snap;
}

std::string EncodeSnapshot(uint64_t lsn, const Graph& g1, const Graph& g2,
                           const FSimScores& scores) {
  const std::string g1_bytes = GraphToBinary(g1);
  const std::string g2_bytes = GraphToBinary(g2);
  const std::vector<uint64_t>& keys = scores.keys();
  const std::vector<double>& values = scores.values();
  const size_t keys_len = keys.size() * sizeof(uint64_t);
  const size_t values_len = values.size() * sizeof(double);
  const size_t scores_len = 8 + keys_len + values_len;
  std::string bytes;
  bytes.reserve(sizeof(kSnapshotMagic) + 4 + 8 + (8 + g1_bytes.size()) +
                (8 + g2_bytes.size()) + (8 + scores_len) + 8);
  bytes.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendU32(&bytes, kSnapshotVersion);
  AppendU64(&bytes, lsn);
  AppendBlob(&bytes, g1_bytes);
  AppendBlob(&bytes, g2_bytes);
  AppendU64(&bytes, scores_len);
  AppendU64(&bytes, keys.size());
  bytes.append(reinterpret_cast<const char*>(keys.data()), keys_len);
  bytes.append(reinterpret_cast<const char*>(values.data()), values_len);
  AppendU64(&bytes, WordHash64(bytes.data() + sizeof(kSnapshotMagic),
                               bytes.size() - sizeof(kSnapshotMagic)));
  return bytes;
}

Status WriteSnapshot(const std::string& dir, uint64_t lsn,
                     std::string_view bytes) {
  FSIM_FAILPOINT("serve.snapshot.persist");
  const std::string final_path = SnapshotPath(dir, lsn);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open %s: %s", tmp_path.c_str(),
                                     std::strerror(errno)));
  }
  const char* data = bytes.data();
  size_t len = bytes.size();
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved_errno = errno;
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return Status::IOError(StrFormat("write to %s failed: %s",
                                       tmp_path.c_str(),
                                       std::strerror(saved_errno)));
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  // durability: the content must be stable before the rename makes the file
  // visible, or a crash could expose a complete-looking but unsynced
  // snapshot whose blocks never hit the platter.
  if (::fsync(fd) != 0) {
    const int saved_errno = errno;
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return Status::IOError(StrFormat("fsync of %s failed: %s",
                                     tmp_path.c_str(),
                                     std::strerror(saved_errno)));
  }
  ::close(fd);

  Status rename_gate = Status::OK();
#ifdef FSIM_FAILPOINTS
  rename_gate = failpoint::Hit("serve.snapshot.rename");
#endif
  if (!rename_gate.ok()) {
    ::unlink(tmp_path.c_str());
    return rename_gate;
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const int saved_errno = errno;
    ::unlink(tmp_path.c_str());
    return Status::IOError(StrFormat("rename %s -> %s failed: %s",
                                     tmp_path.c_str(), final_path.c_str(),
                                     std::strerror(saved_errno)));
  }
  // durability: the rename itself must be durable before callers treat the
  // snapshot as the new recovery floor and delete WAL segments behind it.
  return SyncDirectory(dir);
}

Status PersistSnapshot(const std::string& dir, uint64_t lsn, const Graph& g1,
                       const Graph& g2, const FSimScores& scores) {
  return WriteSnapshot(dir, lsn, EncodeSnapshot(lsn, g1, g2, scores));
}

Result<LoadedSnapshot> LoadLatestSnapshot(const std::string& dir) {
  FSIM_ASSIGN_OR_RETURN(auto snapshots, ListSnapshots(dir));
  size_t discarded = 0;
  std::string bytes;
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    if (!ReadFile(it->second, &bytes).ok()) {
      ++discarded;
      continue;
    }
    auto snap = ParseSnapshot(bytes, it->first);
    if (!snap.ok()) {
      ++discarded;
      continue;
    }
    LoadedSnapshot loaded = std::move(snap).ValueOrDie();
    loaded.discarded = discarded;
    return loaded;
  }
  return Status::NotFound(StrFormat(
      "no valid snapshot in %s (%zu corrupt skipped)", dir.c_str(),
      discarded));
}

Result<RecoveredState> RecoverServeState(const std::string& dir, Graph base_g1,
                                         Graph base_g2) {
  FSIM_TRACE_SPAN("recovery.load");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError(StrFormat("cannot create durability directory "
                                     "%s: %s",
                                     dir.c_str(), ec.message().c_str()));
  }

  RecoveredState state;
  auto snap = LoadLatestSnapshot(dir);
  if (snap.ok()) {
    LoadedSnapshot loaded = std::move(snap).ValueOrDie();
    state.have_snapshot = true;
    state.snapshot_lsn = loaded.lsn;
    state.g1 = std::move(loaded.g1);
    state.g2 = std::move(loaded.g2);
    state.scores = std::move(loaded.scores);
    state.snapshots_discarded = loaded.discarded;
  } else if (snap.status().IsNotFound()) {
    state.g1 = std::move(base_g1);
    state.g2 = std::move(base_g2);
    // NotFound carries the corrupt-skip count only in its message; recount.
    FSIM_ASSIGN_OR_RETURN(auto all, ListSnapshots(dir));
    state.snapshots_discarded = all.size();
  } else {
    return snap.status();
  }

  FSIM_ASSIGN_OR_RETURN(WalTail wal,
                        ReadWal(dir, /*truncate_torn_tail=*/true));
  state.torn_bytes = wal.torn_bytes;
  state.next_lsn = std::max(wal.next_lsn, state.snapshot_lsn + 1);
  state.tail.reserve(wal.records.size());
  for (const EditRecord& rec : wal.records) {
    if (rec.lsn > state.snapshot_lsn) state.tail.push_back(rec);
  }
  return state;
}

Result<size_t> RemoveObsoleteSnapshots(const std::string& dir, size_t keep) {
  if (keep == 0) keep = 1;  // never delete the newest snapshot
  FSIM_ASSIGN_OR_RETURN(auto snapshots, ListSnapshots(dir));
  size_t removed = 0;
  for (size_t i = 0; i + keep < snapshots.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(snapshots[i].second, ec);
    if (ec) {
      return Status::IOError(StrFormat("cannot remove snapshot %s: %s",
                                       snapshots[i].second.c_str(),
                                       ec.message().c_str()));
    }
    ++removed;
  }
  return removed;
}

Result<uint64_t> OldestSnapshotLsn(const std::string& dir) {
  FSIM_ASSIGN_OR_RETURN(auto snapshots, ListSnapshots(dir));
  return snapshots.empty() ? uint64_t{0} : snapshots.front().first;
}

}  // namespace fsim
