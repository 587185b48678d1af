// Divergence forensics: align two JSONL trace streams, pinpoint the
// first divergent record, and render a decoded context window.
//
// A bare digest mismatch says "the runs differed"; this module says
// *where* — the record index and sim-time of the first divergence, the
// scheduler pass it happened inside, the first JSON field whose values
// disagree, and a few decoded records of surrounding context. Parity
// tests and CI route failing pairs through here so a broken PR ships a
// forensic report instead of two hashes.
//
// Alignment algorithm: traces are deterministic logs, so the streams are
// compared record-by-record in order after normalization — no LCS or
// fuzzy matching; the first normalized mismatch IS the divergence (every
// later mismatch is downstream fallout of it). Normalization strips the
// "execution" block from manifest records: two runs that differ only in
// threads/stream/build are *required* to produce otherwise
// identical streams, so execution metadata must not count as divergence.
#pragma once

#include <cstddef>
#include <string>

namespace cosched::obs {

struct DiffOptions {
  int context = 3;  ///< records shown on each side of the divergence
};

struct DiffResult {
  bool identical = false;
  /// 0-based record index of the first divergence (meaningful only when
  /// !identical). Equal to the shorter stream's size when one stream is
  /// a strict prefix of the other.
  std::size_t first_divergence = 0;
  /// Human-readable forensic report (always populated; one line when
  /// identical).
  std::string report;
};

/// Compares two JSONL documents record-by-record. Lines that fail to
/// parse as JSON are compared as raw text (so the tool degrades to a
/// line diff on non-trace input instead of refusing).
DiffResult diff_streams(const std::string& a_name, const std::string& a_jsonl,
                        const std::string& b_name, const std::string& b_jsonl,
                        const DiffOptions& opts = {});

}  // namespace cosched::obs
