// Standard Workload Format (SWF) I/O.
//
// SWF is the community interchange format for batch-system traces
// (Feitelson's Parallel Workloads Archive): one job per line, 18
// whitespace-separated integer fields, ';' comment lines forming the header.
// We map CoSched's whole-node job model onto it by storing node counts in
// the processor fields (documented in the emitted header).
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "workload/job.hpp"
#include "workload/source.hpp"

namespace cosched::trace {

/// One SWF record. Field names follow the SWF specification; -1 means
/// "not available" throughout, as the spec prescribes.
struct SwfRecord {
  std::int64_t job_number = -1;
  std::int64_t submit_time = -1;      ///< seconds since trace start
  std::int64_t wait_time = -1;        ///< seconds
  std::int64_t run_time = -1;         ///< seconds
  std::int64_t procs_used = -1;
  double avg_cpu_time = -1;
  std::int64_t memory_used = -1;
  std::int64_t procs_requested = -1;
  std::int64_t time_requested = -1;   ///< walltime estimate, seconds
  std::int64_t memory_requested = -1;
  std::int64_t status = -1;           ///< 1 completed, 0 failed, 5 cancelled
  std::int64_t user_id = -1;
  std::int64_t group_id = -1;
  std::int64_t app_number = -1;
  std::int64_t queue_number = -1;
  std::int64_t partition_number = -1;
  std::int64_t preceding_job = -1;
  std::int64_t think_time = -1;
};

/// Streaming SWF parser: pulls one record at a time off a line-buffered
/// stream, so an arbitrarily long trace never materializes. Comment/blank
/// lines are skipped. Malformed/short data lines (archives do contain
/// them) are skipped and counted — the first one logs a warning with its
/// line number, and the end of the stream logs the total once, which
/// malformed_lines() also returns. A field that reads as a number but not
/// a finite one (NaN, infinity) is no short line: next() throws Error
/// naming the job and the field.
class SwfReader {
 public:
  /// `in` must outlive the reader.
  explicit SwfReader(std::istream& in) : in_(in) {}

  /// The next record, or nullopt at end of stream.
  std::optional<SwfRecord> next();

  /// Data lines skipped because they did not parse as 18 fields.
  std::size_t malformed_lines() const { return malformed_; }

  /// Bytes consumed off the stream so far (lines + newlines). Grows as
  /// records are pulled — evidence the reader streams rather than slurps.
  std::size_t bytes_read() const { return bytes_read_; }

 private:
  std::istream& in_;
  std::string line_;  // reused per getline: one resident line buffer
  std::size_t line_no_ = 0;
  std::size_t malformed_ = 0;
  std::size_t bytes_read_ = 0;
  bool ended_ = false;  ///< the end of the stream was reached (and logged)
};

/// Parses an SWF stream into a vector (materializing convenience wrapper
/// over SwfReader). Malformed data lines are skipped with a counted
/// warning; pass `malformed` to receive the skip count.
std::vector<SwfRecord> read_swf(std::istream& in,
                                std::size_t* malformed = nullptr);
std::vector<SwfRecord> read_swf_file(const std::string& path,
                                     std::size_t* malformed = nullptr);

/// Writes records with a descriptive header.
void write_swf(std::ostream& out, const std::vector<SwfRecord>& records,
               const std::string& header_note = "");
void write_swf_file(const std::string& path,
                    const std::vector<SwfRecord>& records,
                    const std::string& header_note = "");

/// Converts one SWF record into a submission: submit time, size, walltime
/// request, and (when present) actual runtime become the ground-truth
/// runtime. `app_count` maps SWF app numbers onto catalog ids by modulo;
/// pass 0 to leave apps unassigned (-1). Throws cosched::Error, naming the
/// job and the field, on records that cannot describe a job: no processor
/// count, no runtime, a processor count beyond int, or a time field
/// beyond kMaxInputSeconds.
workload::Job job_from_swf(const SwfRecord& record, int app_count);

/// Materializing wrapper over job_from_swf. Rejects a trace not sorted by
/// submit time, with SwfJobSource's message.
workload::JobList jobs_from_swf(const std::vector<SwfRecord>& records,
                                int app_count);

/// Streaming trace replay: a JobSource that converts SWF records straight
/// off the stream, so replaying a 100k-job archive keeps O(1) records
/// resident. Requires the trace to be sorted by submit time (the SWF
/// convention; enforced because lazy submission relies on it).
class SwfJobSource final : public workload::JobSource {
 public:
  /// Reads from a borrowed stream (must outlive the source).
  SwfJobSource(std::istream& in, int app_count);
  /// Opens and owns `path`.
  SwfJobSource(const std::string& path, int app_count);
  ~SwfJobSource() override;  // out-of-line: std::ifstream is incomplete here

  std::optional<workload::Job> next() override;

  std::size_t malformed_lines() const { return reader_.malformed_lines(); }

  /// Also surfaces malformed-line skips as the `swf_malformed_lines`
  /// counter and total bytes consumed as `swf_bytes_read` in `registry`
  /// when the stream drains (one counter set; the reader logs the first
  /// skip and the total either way). Non-owning; nullptr detaches.
  void bind_registry(obs::Registry* registry) { registry_ = registry; }

 private:
  std::unique_ptr<std::ifstream> file_;  ///< set iff constructed from a path
  SwfReader reader_;
  int app_count_;
  SimTime last_submit_ = 0;
  obs::Registry* registry_ = nullptr;  ///< non-owning, may be nullptr
  bool skips_reported_ = false;  ///< counter set once, at first drain
};

/// Converts finished jobs to SWF records (for archiving simulated runs).
std::vector<SwfRecord> jobs_to_swf(const workload::JobList& jobs);

}  // namespace cosched::trace
