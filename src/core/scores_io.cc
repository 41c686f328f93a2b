#include "core/scores_io.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace fsim {

std::string ScoresToString(const FSimScores& scores) {
  std::string out = "fsim-scores v1\n";
  out += StrFormat("pairs %zu\n", scores.NumPairs());
  const auto& keys = scores.keys();
  const auto& values = scores.values();
  for (size_t i = 0; i < keys.size(); ++i) {
    out += StrFormat("%u %u %.17g\n", PairFirst(keys[i]),
                     PairSecond(keys[i]), values[i]);
  }
  return out;
}

namespace {

/// One "<u> <v> <score>" line: unsigned decimal node ids (no sign, below
/// kInvalidNode, whose self-pair is FlatPairMap's empty key) and a finite
/// score in [0, 1].
Status ParsePairLine(std::string_view line, size_t line_no, uint32_t* u,
                     uint32_t* v, double* score) {
  const auto fields = SplitWhitespace(line);
  auto parse = [](std::string_view field, auto* out) {
    const char* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, *out);
    return ec == std::errc() && ptr == end;
  };
  if (fields.size() != 3 || !parse(fields[0], u) || !parse(fields[1], v) ||
      !parse(fields[2], score)) {
    return Status::IOError(StrFormat("malformed pair at line %zu", line_no));
  }
  if (*u == kInvalidNode || *v == kInvalidNode) {
    return Status::IOError(
        StrFormat("node id out of range at line %zu", line_no));
  }
  if (!std::isfinite(*score) || *score < 0.0 || *score > 1.0) {
    return Status::IOError(
        StrFormat("score out of range at line %zu", line_no));
  }
  return Status::OK();
}

}  // namespace

Result<FSimScores> ScoresFromString(std::string_view text) {
  auto lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != "fsim-scores v1") {
    return Status::IOError("missing 'fsim-scores v1' header");
  }
  if (lines.size() < 2) return Status::IOError("missing pair count");
  uint64_t expected = 0;
  {
    auto fields = SplitWhitespace(lines[1]);
    if (fields.size() != 2 || fields[0] != "pairs") {
      return Status::IOError("malformed pair count line");
    }
    auto count = ParseUint64(fields[1]);
    if (!count.ok()) return Status::IOError("malformed pair count line");
    expected = *count;
  }
  // Each pair takes a line, so a larger count is corrupt — and must not
  // reach reserve().
  if (expected > lines.size() - 2) {
    return Status::IOError(StrFormat(
        "pair count %" PRIu64 " exceeds the %zu remaining lines", expected,
        lines.size() - 2));
  }

  std::vector<uint64_t> keys;
  std::vector<double> values;
  keys.reserve(expected);
  values.reserve(expected);
  for (size_t li = 2; li < lines.size(); ++li) {
    std::string_view line = Trim(lines[li]);
    if (line.empty()) continue;
    uint32_t u = 0, v = 0;
    double score = 0.0;
    FSIM_RETURN_NOT_OK(ParsePairLine(line, li + 1, &u, &v, &score));
    keys.push_back(PairKey(u, v));
    values.push_back(score);
  }
  if (keys.size() != expected) {
    return Status::IOError(StrFormat("expected %" PRIu64 " pairs, found %zu",
                                     expected, keys.size()));
  }
  // Re-sort (writers emit sorted data, but be liberal in what we accept).
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  std::vector<uint64_t> sorted_keys(keys.size());
  std::vector<double> sorted_values(keys.size());
  FlatPairMap index(keys.size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted_keys[i] = keys[order[i]];
    sorted_values[i] = values[order[i]];
    if (!index.Insert(sorted_keys[i], static_cast<uint32_t>(i))) {
      return Status::IOError("duplicate pair in score file");
    }
  }
  return FSimScores(std::move(sorted_keys), std::move(sorted_values),
                    std::move(index), FSimStats{});
}

Status SaveScoresToFile(const FSimScores& scores, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << ScoresToString(scores);
  if (!out) return Status::IOError("write failed on " + path);
  return Status::OK();
}

Result<FSimScores> LoadScoresFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ScoresFromString(ss.str());
}

}  // namespace fsim
