// Per-process resource accounting: peak RSS and CPU split, read once at
// the end of a run and reported through the standard metrics JSON.
//
// This replaces the ad-hoc getrusage probe that used to live inside
// bench_a8_scale: every bench (and `cosched sim --metrics-json`) now
// reports the same fields from the same source. Host-state reads are
// reporting-only by the usual contract — the values never feed back into
// scheduling — and they are wall-clock-class quantities, so artifacts
// that must be byte-compared across runs exclude them (the bench harness
// nests them under a "process" key; `cosched report` omits them).
#pragma once

#include <string>

namespace cosched::obs {

struct ProcessStats {
  double max_rss_mb = 0;  ///< getrusage peak resident set, MiB
  double user_cpu_s = 0;
  double sys_cpu_s = 0;
  int hardware_concurrency = 0;  ///< std::thread::hardware_concurrency
};

/// Reads RUSAGE_SELF. Zeroes on platforms without getrusage.
ProcessStats process_stats();

/// The process's *current* (not peak) resident set in MiB, from
/// /proc/self/statm. Cheap enough to poll mid-run — the scaling bench
/// samples it at job-count checkpoints to show memory is flat, which peak
/// RSS alone cannot distinguish from an early spike. Returns 0 where
/// procfs is unavailable.
double current_rss_mb();

/// {"max_rss_mb":...,"user_cpu_s":...,"sys_cpu_s":...,
///  "hardware_concurrency":...} as one standalone JSON object, for callers
/// assembling a document by string concatenation (the bench harness).
std::string process_stats_json(const ProcessStats& stats);

}  // namespace cosched::obs
