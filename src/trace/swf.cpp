#include "trace/swf.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <string_view>
#include <type_traits>

#include "util/check.hpp"
#include "util/input.hpp"
#include "util/log.hpp"

namespace cosched::trace {

namespace {

constexpr std::size_t kFieldCount = 18;

/// The SWF fields in column order, as error messages name them.
constexpr const char* kFieldNames[kFieldCount] = {
    "job number",       "submit time",          "wait time",
    "run time",         "processors used",      "average CPU time",
    "memory used",      "processors requested", "requested time",
    "memory requested", "status",               "user id",
    "group id",         "application number",   "queue number",
    "partition number", "preceding job",        "think time"};

/// The one real-valued field; every other field is an integer.
constexpr std::size_t kCpuTimeField = 5;

/// Whitespace as `>>` skips it; a CRLF line's '\r' is trailing space.
constexpr std::string_view kSpace = " \t\n\v\f\r";

/// `token` without the leading '+' that `>>` accepts and from_chars does
/// not.
std::string_view without_plus(std::string_view token) {
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') {
    token.remove_prefix(1);
  }
  return token;
}

/// Parses all of `token` as `out`: an integer field must be a whole
/// integer, the real field a finite number.
template <typename T>
bool parse_field(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, out);
  if (ec != std::errc() || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

/// True when `token` reads as a number that no double holds: NaN, an
/// infinity, or a magnitude past the largest double. Read as a long
/// double, so a value too small for a double counts as finite.
bool non_finite(std::string_view token) {
  const char* end = token.data() + token.size();
  long double value = 0;
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (stop != end) return false;  // not a number at all
  return ec == std::errc::result_out_of_range || !std::isfinite(value) ||
         std::fabs(value) > std::numeric_limits<double>::max();
}

/// Scans one data line into `r` in a single pass. True only for exactly
/// 18 fields that each parse; any other line is malformed. A field among
/// the first 18 that reads as a number but not a finite one makes the line
/// unreadable, not short: throws Error naming the job (the line, when the
/// job number is that field) and the field.
bool scan_record(std::string_view line, std::size_t line_no, SwfRecord& r) {
  std::int64_t* const integers[kFieldCount] = {
      &r.job_number,       &r.submit_time,      &r.wait_time,
      &r.run_time,         &r.procs_used,       nullptr,
      &r.memory_used,      &r.procs_requested,  &r.time_requested,
      &r.memory_requested, &r.status,           &r.user_id,
      &r.group_id,         &r.app_number,       &r.queue_number,
      &r.partition_number, &r.preceding_job,    &r.think_time};
  std::string_view job;
  std::size_t field = 0;
  bool ok = true;
  for (std::size_t pos = line.find_first_not_of(kSpace);
       pos != std::string_view::npos;
       pos = line.find_first_not_of(kSpace, pos)) {
    if (field == kFieldCount) return false;  // more than 18 fields
    const std::size_t stop = std::min(line.find_first_of(kSpace, pos),
                                      line.size());
    const std::string_view token = line.substr(pos, stop - pos);
    const std::string_view number = without_plus(token);
    pos = stop;
    const bool parsed = field == kCpuTimeField
                            ? parse_field(number, r.avg_cpu_time)
                            : parse_field(number, *integers[field]);
    if (!parsed) {
      COSCHED_REQUIRE(!non_finite(number),
                      "SWF " << (field == 0
                                     ? "line " + std::to_string(line_no)
                                     : "job " + std::string(job))
                             << " " << kFieldNames[field] << " is " << token
                             << ", not a finite number");
      ok = false;
    }
    if (field == 0) job = token;
    ++field;
  }
  return ok && field == kFieldCount;
}

}  // namespace

std::optional<SwfRecord> SwfReader::next() {
  while (std::getline(in_, line_)) {
    ++line_no_;
    // +1 for the newline getline consumed; the final unterminated line of
    // a trace under-counts by one byte, which the counter's purpose
    // (proving the replay streamed the file, not slurped it) tolerates.
    bytes_read_ += line_.size() + 1;
    // Strip comments and skip blanks.
    if (auto pos = line_.find(';'); pos != std::string::npos) {
      line_.resize(pos);
    }
    if (line_.find_first_not_of(kSpace) == std::string::npos) {
      continue;  // blank or comment-only line
    }
    SwfRecord r;
    if (scan_record(line_, line_no_, r)) return r;
    // Archive traces do contain short/garbled lines; skip and count them
    // instead of abandoning the replay. First offender logs its line.
    if (++malformed_ == 1) {
      COSCHED_WARN("SWF line " << line_no_
                               << ": expected 18 numeric fields; "
                                  "skipping (further skips counted)");
    }
  }
  if (!ended_ && malformed_ > 0) {
    COSCHED_WARN("SWF stream: skipped " << malformed_
                                        << " malformed line(s)");
  }
  ended_ = true;
  return std::nullopt;
}

std::vector<SwfRecord> read_swf(std::istream& in, std::size_t* malformed) {
  std::vector<SwfRecord> out;
  SwfReader reader(in);
  while (auto r = reader.next()) out.push_back(*r);
  if (malformed != nullptr) *malformed = reader.malformed_lines();
  return out;
}

std::vector<SwfRecord> read_swf_file(const std::string& path,
                                     std::size_t* malformed) {
  std::ifstream in;
  COSCHED_REQUIRE(open_input(in, path),
                  "cannot open SWF file '" << path << "'");
  return read_swf(in, malformed);
}

void write_swf(std::ostream& out, const std::vector<SwfRecord>& records,
               const std::string& header_note) {
  out << "; SWF trace written by CoSched\n";
  out << "; Convention: processor fields carry whole-node counts\n";
  if (!header_note.empty()) out << "; " << header_note << "\n";
  out << "; Fields: job submit wait run procs avg_cpu mem procs_req "
         "time_req mem_req status uid gid app queue partition preceding "
         "think\n";
  for (const auto& r : records) {
    out << r.job_number << ' ' << r.submit_time << ' ' << r.wait_time << ' '
        << r.run_time << ' ' << r.procs_used << ' ' << r.avg_cpu_time << ' '
        << r.memory_used << ' ' << r.procs_requested << ' '
        << r.time_requested << ' ' << r.memory_requested << ' ' << r.status
        << ' ' << r.user_id << ' ' << r.group_id << ' ' << r.app_number << ' '
        << r.queue_number << ' ' << r.partition_number << ' '
        << r.preceding_job << ' ' << r.think_time << '\n';
  }
}

void write_swf_file(const std::string& path,
                    const std::vector<SwfRecord>& records,
                    const std::string& header_note) {
  std::ofstream out(path);
  COSCHED_REQUIRE(out.good(), "cannot write SWF file '" << path << "'");
  write_swf(out, records, header_note);
}

namespace {

/// SWF time field `field` of record `r` (whole seconds) as a SimTime.
SimTime swf_seconds(const SwfRecord& r, const char* field,
                    std::int64_t seconds) {
  COSCHED_REQUIRE(seconds <= kMaxInputSeconds,
                  "SWF job " << r.job_number << " " << field << " "
                             << seconds << " s exceeds the limit of "
                             << kMaxInputSeconds << " s");
  return seconds * kSecond;
}

/// Both replay modes need a trace sorted by submit time: streaming pulls
/// arrivals lazily, and sorting would need the whole file.
void require_sorted(const workload::Job& job, SimTime previous_submit) {
  COSCHED_REQUIRE(job.submit_time >= previous_submit,
                  "SWF trace not sorted by submit time at job "
                      << job.id << "; replay needs a sorted trace");
}

}  // namespace

workload::Job job_from_swf(const SwfRecord& r, int app_count) {
  COSCHED_REQUIRE(r.job_number >= 0,
                  "SWF record with negative job number " << r.job_number);
  workload::Job job;
  job.id = r.job_number;
  job.user = "uid" + std::to_string(r.user_id >= 0 ? r.user_id : 0);
  const bool requested = r.procs_requested > 0;
  const std::int64_t procs = requested ? r.procs_requested : r.procs_used;
  COSCHED_REQUIRE(procs > 0, "SWF job " << r.job_number
                                        << " has no processor count");
  COSCHED_REQUIRE(procs <= std::numeric_limits<int>::max(),
                  "SWF job " << r.job_number << " "
                             << (requested ? "requested" : "used")
                             << " processors " << procs
                             << " exceeds the limit of "
                             << std::numeric_limits<int>::max());
  job.nodes = static_cast<int>(procs);
  job.submit_time = r.submit_time > 0
                        ? swf_seconds(r, "submit time", r.submit_time)
                        : 0;
  COSCHED_REQUIRE(r.run_time > 0 || r.time_requested > 0,
                  "SWF job " << r.job_number
                             << " has neither runtime nor request");
  job.base_runtime = r.run_time > 0
                         ? swf_seconds(r, "run time", r.run_time)
                         : swf_seconds(r, "requested time", r.time_requested);
  job.walltime_limit =
      r.time_requested > 0
          ? swf_seconds(r, "requested time", r.time_requested)
          : job.base_runtime;
  if (job.walltime_limit < job.base_runtime) {
    // Some archive traces record runtime past the request (grace kills);
    // clamp so replays are feasible.
    job.walltime_limit = job.base_runtime;
  }
  if (app_count > 0) {
    const std::int64_t app = r.app_number >= 0 ? r.app_number : r.job_number;
    job.app = static_cast<AppId>(app % app_count);
  }
  return job;
}

workload::JobList jobs_from_swf(const std::vector<SwfRecord>& records,
                                int app_count) {
  workload::JobList jobs;
  jobs.reserve(records.size());
  SimTime last_submit = 0;
  for (const auto& r : records) {
    jobs.push_back(job_from_swf(r, app_count));
    require_sorted(jobs.back(), last_submit);
    last_submit = jobs.back().submit_time;
  }
  return jobs;
}

SwfJobSource::SwfJobSource(std::istream& in, int app_count)
    : reader_(in), app_count_(app_count) {}

SwfJobSource::SwfJobSource(const std::string& path, int app_count)
    : file_(std::make_unique<std::ifstream>()),
      reader_(*file_),
      app_count_(app_count) {
  COSCHED_REQUIRE(open_input(*file_, path),
                  "cannot open SWF file '" << path << "'");
}

SwfJobSource::~SwfJobSource() = default;

std::optional<workload::Job> SwfJobSource::next() {
  std::optional<SwfRecord> record = reader_.next();
  if (!record) {
    // The reader warned at the first skip and again with the total at the
    // end of the stream; a bound registry also counts the total. Guarded
    // so polling next() past the end never double-counts.
    if (!skips_reported_ && registry_ != nullptr) {
      skips_reported_ = true;
      if (reader_.malformed_lines() > 0) {
        registry_->counter("swf_malformed_lines")
            .inc(reader_.malformed_lines());
      }
      // Total trace bytes consumed: together with the flat resident-job
      // gauges this shows the replay streamed the file end to end.
      registry_->counter("swf_bytes_read").inc(reader_.bytes_read());
    }
    return std::nullopt;
  }
  workload::Job job = job_from_swf(*record, app_count_);
  require_sorted(job, last_submit_);
  last_submit_ = job.submit_time;
  return job;
}

std::vector<SwfRecord> jobs_to_swf(const workload::JobList& jobs) {
  std::vector<SwfRecord> out;
  out.reserve(jobs.size());
  for (const auto& job : jobs) {
    SwfRecord r;
    r.job_number = job.id;
    r.submit_time = job.submit_time / kSecond;
    r.wait_time = job.wait_time() >= 0 ? job.wait_time() / kSecond : -1;
    // For jobs that ran, the observed elapsed time; for jobs that never
    // ran (archiving a workload rather than a schedule), the ground-truth
    // runtime, so a replay reproduces the same work.
    r.run_time = (job.start_time >= 0 && job.end_time >= 0)
                     ? (job.end_time - job.start_time) / kSecond
                     : (job.base_runtime > 0 ? job.base_runtime / kSecond
                                             : -1);
    r.procs_used = job.nodes;
    r.procs_requested = job.nodes;
    r.time_requested = job.walltime_limit / kSecond;
    switch (job.state) {
      case workload::JobState::kCompleted: r.status = 1; break;
      case workload::JobState::kTimeout: r.status = 0; break;
      case workload::JobState::kCancelled: r.status = 5; break;
      default: r.status = -1; break;
    }
    r.app_number = job.app;
    out.push_back(r);
  }
  return out;
}

}  // namespace cosched::trace
