// Serialization of FSimScores: persist a converged score map to disk and
// reload it later (downstream applications — alignment, matching — reuse
// score maps across runs; recomputing the fixpoint is the expensive part).
//
// Format: a small text header followed by one "u v score" line per pair.
//   fsim-scores v1
//   pairs <n>
//   <u> <v> <score>
//   ...
//
// This is the user-facing format (fsim_cli --out, warm_scores_path). Durable
// serving snapshots (serve/recovery.h) store scores as a binary blob.
#ifndef FSIM_CORE_SCORES_IO_H_
#define FSIM_CORE_SCORES_IO_H_

#include <string>

#include "common/result.h"
#include "core/fsim_scores.h"

namespace fsim {

/// Serializes the score map (pairs and values only; run statistics are not
/// persisted).
std::string ScoresToString(const FSimScores& scores);

/// Parses a serialized score map.
Result<FSimScores> ScoresFromString(std::string_view text);

/// File round trip.
Status SaveScoresToFile(const FSimScores& scores, const std::string& path);
Result<FSimScores> LoadScoresFromFile(const std::string& path);

}  // namespace fsim

#endif  // FSIM_CORE_SCORES_IO_H_
